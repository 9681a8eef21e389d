package experiment

import (
	"fmt"
	"testing"
	"time"

	"dapes/internal/core"
	"dapes/internal/geo"
	"dapes/internal/ndn"
)

// TestCompletionCounterMatchesScan holds the stop predicate's completion
// counter to a scan of core.Peer.Done at every predicate evaluation of
// urban-grid-chaos, whose cold restarts un-complete peers, on one stripe
// (evaluated after every event) and two (evaluated at window barriers). It
// also requires the counter to have fallen at least once, so a restart
// that forgot a completed download was actually exercised.
func TestCompletionCounterMatchesScan(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := goldenScale()
			s.Horizon = 6 * time.Minute
			s.Shards = shards
			var evals, falls int
			var mismatch string
			last := int64(0)
			completionProbe = func(held int64, coll ndn.Name, downloaders []*core.Peer) {
				scan := int64(0)
				for _, p := range downloaders {
					if done, _ := p.Done(coll); done {
						scan++
					}
				}
				if held != scan && mismatch == "" {
					mismatch = fmt.Sprintf("evaluation %d: counter %d, scan of Peer.Done %d", evals, held, scan)
				}
				if held < last {
					falls++
				}
				evals, last = evals+1, held
			}
			defer func() { completionProbe = nil }()

			res, err := Runner{Workers: 1}.RunScenario("urban-grid-chaos", s, 60)
			if err != nil {
				t.Fatal(err)
			}
			if mismatch != "" {
				t.Fatal(mismatch)
			}
			if evals == 0 || res.Trials[0].Completed == 0 {
				t.Fatalf("%d predicate evaluations, %d completions: the oracle is vacuous", evals, res.Trials[0].Completed)
			}
			t.Logf("%d evaluations, %d falls, %d/%d completed", evals, falls, res.Trials[0].Completed, res.Trials[0].Downloaders)
			if falls == 0 {
				t.Fatal("the counter never fell: no restart un-completed a peer, so the forget path is unexercised")
			}
		})
	}
}

// TestCompletionPredicateDoesNotAllocate pins the per-event stop predicate
// at 0 allocations.
func TestCompletionPredicateDoesNotAllocate(t *testing.T) {
	w := newScenarioWorld(goldenScale(), 1)
	coll := ndn.ParseName("/pinned")
	var downloaders []*core.Peer
	for i := 0; i < 8; i++ {
		p := core.NewPeer(w.kernel, w.medium, geo.Stationary{At: geo.Point{X: float64(i)}}, nil, nil, w.cfg)
		p.Subscribe(coll)
		downloaders = append(downloaders, p)
	}
	c := watchCompletions(coll, downloaders)
	var all bool
	if allocs := testing.AllocsPerRun(100, func() { all = c.all() }); allocs != 0 {
		t.Fatalf("completion predicate: %v allocs, want 0", allocs)
	}
	if all {
		t.Fatal("no downloader holds the collection, yet the predicate reports all")
	}
}
