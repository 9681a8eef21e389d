package experiment

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"dapes/internal/phy"
	"dapes/internal/sim"
)

// goldenScale keeps every scenario cheap enough to run twice per test while
// still exercising discovery, advertisement, fetching, and forwarding. The
// multiplier scenarios (urban-grid 5x, urban-grid-xl 25x) blow the node mix
// up from this base, so it stays tiny.
func goldenScale() Scale {
	return Scale{
		Trials:         1,
		NumFiles:       2,
		PacketsPerFile: 4,
		PacketSize:     200,
		Ranges:         []float64{60},
		Horizon:        90 * time.Second,
		Stationary:     2,
		MobileDown:     2,
		PureForwarders: 1,
		Intermediates:  1,
		LossRate:       0.10,
		BaseSeed:       7,
	}
}

// update rewrites the committed goldens under testdata/golden instead of
// comparing against them:
//
//	go test ./internal/experiment -run TestGoldenScenarioJSON -update
//
// Regenerate only when a change moves a scenario's behaviour on purpose,
// and say which scenarios moved and why in the commit.
var update = flag.Bool("update", false, "rewrite testdata/golden/*.json from the current code")

// goldenDir holds one committed JSON document per registered scenario.
const goldenDir = "testdata/golden"

// runGolden runs one scenario serially at s and renders it through the
// shared JSON emitter.
func runGolden(t *testing.T, sc *Scenario, s Scale) (RunResult, []byte) {
	t.Helper()
	res, err := Runner{Workers: 1}.Run(sc, s, 60)
	if err != nil {
		t.Fatal(err)
	}
	// Guard against a degenerate world where any comparison is vacuous.
	if res.Trials[0].Transmissions == 0 {
		t.Fatal("golden run put no frames on the air; scale too small to prove anything")
	}
	var buf bytes.Buffer
	if err := EmitRun(&buf, FormatJSON, res); err != nil {
		t.Fatalf("emit: %v", err)
	}
	return res, buf.Bytes()
}

// TestGoldenScenarioJSON pins every registered scenario's emitted JSON
// across changes, byte for byte, against the documents committed under
// testdata/golden: each scenario runs serially at goldenScale and its
// default shard count. The backend gates below prove two implementations
// agree with each other; this one proves the code agrees with what it
// produced when the goldens were written, so a change that moves both
// sides of a comparison still fails here. A scenario without a golden, or
// a golden without a scenario, fails too.
func TestGoldenScenarioJSON(t *testing.T) {
	t.Parallel()
	want := map[string]bool{}
	for _, sc := range Scenarios() {
		want[sc.Name+".json"] = true
	}
	files, err := filepath.Glob(filepath.Join(goldenDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var stale []string
	for _, f := range files {
		if !want[filepath.Base(f)] {
			stale = append(stale, f)
		}
	}
	sort.Strings(stale)
	if len(stale) > 0 && !*update {
		t.Errorf("goldens for unregistered scenarios: %s", strings.Join(stale, ", "))
	}
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			_, got := runGolden(t, sc, goldenScale())
			path := filepath.Join(goldenDir, sc.Name+".json")
			if *update {
				if err := os.MkdirAll(goldenDir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			committed, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("no committed golden (regenerate with -update): %v", err)
			}
			if !bytes.Equal(committed, got) {
				t.Errorf("emitted JSON diverged from %s\ncommitted: %s\ngot:       %s", path, committed, got)
			}
		})
	}
}

// backendGate runs every registered scenario on the production backends
// and on the reference ref selects, and requires identical results and
// byte-identical emitted JSON. Backends are chosen per run, so the two
// sides cannot silently share a mode.
func backendGate(t *testing.T, refName string, ref Backends) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			s := goldenScale()
			prodRes, prodJSON := runGolden(t, sc, s)
			s.Backends = ref
			refRes, refJSON := runGolden(t, sc, s)
			if !reflect.DeepEqual(refRes, prodRes) {
				t.Errorf("RunResult diverged\n%s: %+v\nproduction: %+v", refName, refRes, prodRes)
			}
			if !bytes.Equal(refJSON, prodJSON) {
				t.Errorf("emitted JSON diverged\n%s: %s\nproduction: %s", refName, refJSON, prodJSON)
			}
		})
	}
}

// TestGoldenTraceGridMatchesNaive is the spatial index's acceptance gate:
// for every registered scenario, the grid-indexed medium must reproduce
// the brute-force scan's results exactly — identical per-trial metrics
// (download times, delivery/transmission counts, forwarding accuracy,
// memory) and byte-identical emitted JSON. Any divergence means the
// spatial index changed simulation behavior, which it must never do.
func TestGoldenTraceGridMatchesNaive(t *testing.T) {
	t.Parallel()
	backendGate(t, "naive", Backends{Index: phy.IndexNaive})
}

// TestGoldenTraceWheelMatchesHeap is the event-kernel acceptance gate: for
// every registered scenario, the timer-wheel scheduler must reproduce the
// reference binary heap exactly. Both queues pop strictly by (time,
// sequence), so the trace is queue-independent by construction; any
// divergence means the wheel changed event execution order.
func TestGoldenTraceWheelMatchesHeap(t *testing.T) {
	t.Parallel()
	backendGate(t, "heap", Backends{ShardOptions: sim.ShardOptions{Queue: sim.QueueHeap}})
}

// TestBaselineTrialsDeterministic reruns the same trial of every Fig.-7
// system twice in-process and requires identical metrics. This pins the
// fix for map-iteration-order leaks in the baselines (DHT migration offers
// went on the air in map order; Bithoc broke holder ties by map order),
// which made Ekta/Bithoc traces vary run to run.
func TestBaselineTrialsDeterministic(t *testing.T) {
	t.Parallel()
	s := goldenScale()
	for _, name := range []string{"fig7-dapes", "fig7-bithoc", "fig7-ekta"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sc, ok := Lookup(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			first, err := sc.Run(s, 60, 0)
			if err != nil {
				t.Fatal(err)
			}
			for rerun := 0; rerun < 3; rerun++ {
				again, err := sc.Run(s, 60, 0)
				if err != nil {
					t.Fatal(err)
				}
				if first != again {
					t.Fatalf("rerun %d diverged:\nfirst: %+v\nagain: %+v", rerun, first, again)
				}
			}
		})
	}
}
