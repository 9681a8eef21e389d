package experiment

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"dapes/internal/core"
	"dapes/internal/ndn"
	"dapes/internal/nfd"
	"dapes/internal/phy"
)

// TestNonceTablesStayBounded is the duplicate-nonce part of the soak
// (docs/CONTRACTS.md, "Duplicate-nonce table"): urban-grid-chaos at ten
// times its golden horizon, held running to the horizon after its
// downloads finish, crashes and cold restarts included. A node records a
// nonce only for an Interest it sends or hears (or creates and then drops
// because the Data arrived first, which its radio also heard), and its
// sweep drops every nonce older than nfd.NonceMaxAge, at least once per
// sweep period. So at every whole second of virtual time, every node whose
// radio is on must hold no more nonces than the frames its radio sent and
// received over the trailing MaxAge plus the peers' sweep period
// (NeighborTTL/2; pure forwarders sweep more often), plus a slack for
// Interests created but not yet on the air. A table that is never swept,
// or that a restart does not empty, outgrows that bound within minutes.
func TestNonceTablesStayBounded(t *testing.T) {
	const slack = 8
	s := goldenScale()
	s.Horizon *= 10

	type node struct {
		name  string
		count func() int
		radio *phy.Radio
	}
	type sample struct {
		at     time.Duration
		frames []uint64
	}
	var (
		nodes   []node
		samples []sample
		window  time.Duration
		peak    int
		breach  string
	)
	trialProbe = func(w world, _ int64, _ ndn.Name, ps dapesPeers) bool {
		now := w.sk.Now()
		if n := len(samples); n > 0 && now < samples[n-1].at+time.Second {
			return true
		}
		if nodes == nil {
			radios := map[int]*phy.Radio{}
			for i := 0; i < w.sm.Shards(); i++ {
				for _, r := range w.sm.Medium(i).Radios() {
					radios[r.ID()] = r
				}
			}
			peers := append([]*core.Peer{ps.producer}, ps.downloaders...)
			for _, p := range append(peers, ps.intermediates...) {
				nodes = append(nodes, node{fmt.Sprintf("peer %d", p.ID()), p.NonceCount, radios[p.ID()]})
			}
			for _, f := range ps.pures {
				nodes = append(nodes, node{fmt.Sprintf("forwarder %d", f.ID()), f.NonceCount, radios[f.ID()]})
			}
			window = nfd.NonceMaxAge + ps.producer.Config().NeighborTTL/2
		}
		cur := sample{at: now, frames: make([]uint64, len(nodes))}
		for i, n := range nodes {
			cur.frames[i] = n.radio.Sent + n.radio.Received
		}
		// The latest sample taken at least a window ago.
		if j := sort.Search(len(samples), func(k int) bool { return samples[k].at > now-window }) - 1; j >= 0 {
			for i, n := range nodes {
				if !n.radio.Enabled() {
					continue // crashed: its table waits for the restart
				}
				got, bound := n.count(), cur.frames[i]-samples[j].frames[i]+slack
				peak = max(peak, got)
				if uint64(got) > bound && breach == "" {
					breach = fmt.Sprintf("%s holds %d nonces at %v; its radio sent and received %d frames since %v (bound %d)",
						n.name, got, now, bound-slack, samples[j].at, bound)
				}
			}
		}
		samples = append(samples, cur)
		return true
	}
	defer func() { trialProbe = nil }()

	if _, err := (Runner{Workers: 1}).RunScenario("urban-grid-chaos", s, 60); err != nil {
		t.Fatal(err)
	}
	if breach != "" {
		t.Fatal(breach)
	}
	if last := samples[len(samples)-1].at; last < s.Horizon-2*time.Second {
		t.Fatalf("the trial stopped at %v, before its %v soak horizon", last, s.Horizon)
	}
	if peak < 20 {
		t.Fatalf("the largest nonce table held %d entries: the soak is vacuous", peak)
	}
	t.Logf("%d nodes, %d samples over %v, largest nonce table %d entries", len(nodes), len(samples), s.Horizon, peak)
}
