package rpf

import (
	"math/rand"
	"testing"

	"dapes/internal/bitmap"
)

func mk(n int, ones ...int) *bitmap.Bitmap {
	b := bitmap.New(n)
	for _, i := range ones {
		b.Set(i)
	}
	return b
}

func full(n int) *bitmap.Bitmap {
	b := bitmap.New(n)
	b.SetAll()
	return b
}

func TestLocalNeighborhoodPicksRarest(t *testing.T) {
	t.Parallel()
	s := NewLocalNeighborhood(4, false, nil)
	// Packet 3 is missing from all three neighbors; packet 1 from one.
	s.Observe(1, mk(4, 0, 1, 2))
	s.Observe(2, mk(4, 0, 2))
	s.Observe(3, mk(4, 0, 1, 2))

	own := mk(4) // we have nothing
	got := s.NextRequest(own, full(4), nil)
	if got != 3 {
		t.Fatalf("NextRequest = %d, want 3 (rarest)", got)
	}
	// Once we have 3, next rarest is 1 (missing by one neighbor); 0 and 2
	// are held by everyone (rarity 0) — 1 wins.
	own.Set(3)
	if got := s.NextRequest(own, full(4), nil); got != 1 {
		t.Fatalf("NextRequest = %d, want 1", got)
	}
}

func TestNextRequestRespectsOwnAvailableSkip(t *testing.T) {
	t.Parallel()
	s := NewLocalNeighborhood(4, false, nil)
	s.Observe(1, mk(4))

	// Own packets are never requested.
	if got := s.NextRequest(full(4), full(4), nil); got != -1 {
		t.Fatalf("complete peer requested %d", got)
	}
	// Unavailable packets are never requested.
	if got := s.NextRequest(mk(4), mk(4, 2), nil); got != 2 {
		t.Fatalf("availability filter: got %d, want 2", got)
	}
	// Skipped (in-flight) packets are passed over.
	got := s.NextRequest(mk(4), full(4), func(i int) bool { return i == 0 })
	if got == 0 || got == -1 {
		t.Fatalf("skip ignored: got %d", got)
	}
}

func TestLocalNeighborhoodDisconnectExpiresState(t *testing.T) {
	t.Parallel()
	s := NewLocalNeighborhood(4, false, nil)
	s.Observe(1, mk(4, 0))
	s.Observe(2, mk(4, 0, 1))
	if s.NeighborCount() != 2 {
		t.Fatalf("NeighborCount = %d", s.NeighborCount())
	}
	s.Disconnect(1)
	if s.NeighborCount() != 1 {
		t.Fatal("disconnect did not expire state")
	}
	s.Disconnect(99) // unknown peer is a no-op
	if s.NeighborCount() != 1 {
		t.Fatal("unknown disconnect mutated state")
	}
}

func TestObserveRejectsWrongSize(t *testing.T) {
	t.Parallel()
	s := NewLocalNeighborhood(4, false, nil)
	s.Observe(1, mk(8, 0))
	if s.NeighborCount() != 0 {
		t.Fatal("wrong-size bitmap accepted")
	}
	e := NewEncounterBased(4, 10, false, nil)
	e.Observe(1, mk(8, 0))
	if e.HistoryLen() != 0 {
		t.Fatal("wrong-size bitmap accepted by encounter strategy")
	}
}

func TestEncounterBasedRemembersDisconnectedPeers(t *testing.T) {
	t.Parallel()
	s := NewEncounterBased(4, 10, false, nil)
	s.Observe(1, mk(4, 0, 1, 2)) // peer 1 misses only 3
	s.Disconnect(1)              // walks away; history retained
	if s.HistoryLen() != 1 {
		t.Fatal("disconnect erased encounter history")
	}
	got := s.NextRequest(mk(4), full(4), nil)
	if got != 3 {
		t.Fatalf("NextRequest = %d, want 3 (from history)", got)
	}
}

func TestEncounterBasedHistoryBound(t *testing.T) {
	t.Parallel()
	s := NewEncounterBased(4, 2, false, nil)
	s.Observe(1, mk(4, 0))
	s.Observe(2, mk(4, 1))
	s.Observe(3, mk(4, 2)) // evicts peer 1
	if s.HistoryLen() != 2 {
		t.Fatalf("HistoryLen = %d, want 2", s.HistoryLen())
	}
	// Re-observing refreshes recency: peer 2 becomes newest, then adding
	// peer 4 evicts peer 3.
	s.Observe(2, mk(4, 1, 3))
	s.Observe(4, mk(4))
	got := s.NextRequest(mk(4, 0, 1, 2), full(4), nil)
	// Remaining: packet 3. Peer 2's refreshed bitmap has 3 -> rarity 1 (only
	// peer 4 misses it). It is the only eligible packet.
	if got != 3 {
		t.Fatalf("NextRequest = %d, want 3", got)
	}
	if s.HistoryLen() != 2 {
		t.Fatalf("HistoryLen after churn = %d", s.HistoryLen())
	}
}

func TestEncounterHistoryMinimum(t *testing.T) {
	t.Parallel()
	s := NewEncounterBased(4, 0, false, nil)
	s.Observe(1, mk(4, 0))
	if s.HistoryLen() != 1 {
		t.Fatal("history floor of 1 not applied")
	}
}

func TestSamePacketStartIsDeterministicAscending(t *testing.T) {
	t.Parallel()
	// With no rarity signal (no neighbors observed, everything available),
	// same-packet mode requests index 0 first — every peer starts identically.
	s := NewLocalNeighborhood(8, false, nil)
	if got := s.NextRequest(mk(8), full(8), nil); got != 0 {
		t.Fatalf("same-packet start = %d, want 0", got)
	}
}

func TestRandomStartDiversifiesFirstRequest(t *testing.T) {
	t.Parallel()
	firsts := make(map[int]bool)
	for seed := int64(0); seed < 20; seed++ {
		s := NewLocalNeighborhood(64, true, rand.New(rand.NewSource(seed)))
		firsts[s.NextRequest(mk(64), full(64), nil)] = true
	}
	if len(firsts) < 5 {
		t.Fatalf("random start produced only %d distinct first requests", len(firsts))
	}
}

func TestRandomStartStillPrefersRarity(t *testing.T) {
	t.Parallel()
	s := NewLocalNeighborhood(8, true, rand.New(rand.NewSource(1)))
	bm := full(8)
	bm.Clear(5) // every neighbor misses packet 5 only
	s.Observe(1, bm.Clone())
	s.Observe(2, bm.Clone())
	if got := s.NextRequest(mk(8), full(8), nil); got != 5 {
		t.Fatalf("rarity overridden by random start: got %d", got)
	}
}

func TestRequestPlanOrderedAndBounded(t *testing.T) {
	t.Parallel()
	s := NewLocalNeighborhood(6, false, nil)
	s.Observe(1, mk(6, 0, 1))
	plan := RequestPlan(s, mk(6), full(6), 3)
	if len(plan) != 3 {
		t.Fatalf("plan length = %d", len(plan))
	}
	// Packets 2..5 (missing by the neighbor) come before 0,1.
	for _, p := range plan {
		if p == 0 || p == 1 {
			t.Fatalf("plan %v includes common packets before rare ones", plan)
		}
	}
	// Plan never repeats.
	seen := map[int]bool{}
	for _, p := range plan {
		if seen[p] {
			t.Fatalf("plan repeats %d", p)
		}
		seen[p] = true
	}
	// Exhaustive plan covers all missing+available.
	all := RequestPlan(s, mk(6), full(6), 100)
	if len(all) != 6 {
		t.Fatalf("exhaustive plan = %v", all)
	}
}

func TestSortByRarity(t *testing.T) {
	t.Parallel()
	counts := map[int]int{0: 1, 1: 3, 2: 3, 3: 0}
	got := SortByRarity([]int{0, 1, 2, 3}, func(i int) int { return counts[i] })
	want := []int{1, 2, 0, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortByRarity = %v, want %v", got, want)
		}
	}
}

func TestStrategyNames(t *testing.T) {
	t.Parallel()
	if NewLocalNeighborhood(1, false, nil).Name() != "local-neighborhood" {
		t.Fatal("local name")
	}
	if NewEncounterBased(1, 1, false, nil).Name() != "encounter-based" {
		t.Fatal("encounter name")
	}
}

// refNextRequest is the map-scan selection the running rarity counts
// replaced: every candidate's rarity is recounted over every stored bitmap.
// It is the reference TestRunningRarityMatchesRecount holds both strategies
// to.
func refNextRequest(n int, bitmaps map[int]*bitmap.Bitmap, tb tieBreaker, own, available *bitmap.Bitmap, skip func(int) bool) int {
	best, bestRarity, bestRank := -1, -1, 0
	for i := 0; i < n; i++ {
		if own.Test(i) || !available.Test(i) || (skip != nil && skip(i)) {
			continue
		}
		r := 0
		for _, bm := range bitmaps {
			if !bm.Test(i) {
				r++
			}
		}
		if r > bestRarity || (r == bestRarity && tb.rank(i) < bestRank) {
			best, bestRarity, bestRank = i, r, tb.rank(i)
		}
	}
	return best
}

func randomBitmap(rng *rand.Rand, n int, density float64) *bitmap.Bitmap {
	b := bitmap.New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			b.Set(i)
		}
	}
	return b
}

// TestRunningRarityMatchesRecount applies random Observe, re-Observe,
// Disconnect and (through Observe) history-eviction sequences to both
// strategies. After every step the running counts must equal a
// from-scratch recount over the stored bitmaps, and the whole NextRequest
// sequence must match the map-scan reference.
func TestRunningRarityMatchesRecount(t *testing.T) {
	t.Parallel()
	type subject struct {
		s      Strategy
		stored map[int]*bitmap.Bitmap
		rarity *bitmap.Rarity
		tb     tieBreaker
	}
	for _, n := range []int{1, 64, 70} {
		for _, randomStart := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(n)))
			local := NewLocalNeighborhood(n, randomStart, rng)
			enc := NewEncounterBased(n, 3, randomStart, rng)
			subjects := []subject{
				{local, local.neighbors, local.rarity, local.tb},
				{enc, enc.bitmaps, enc.rarity, enc.tb},
			}
			for step := 0; step < 300; step++ {
				peer := rng.Intn(8) // few peers: re-observes are common
				op := rng.Intn(4)
				bm := randomBitmap(rng, n, rng.Float64())
				for _, sub := range subjects {
					switch op {
					case 0:
						sub.s.Disconnect(peer)
					default:
						sub.s.Observe(peer, bm)
					}
				}
				own := randomBitmap(rng, n, 0.3)
				avail := randomBitmap(rng, n, 0.8)
				for _, sub := range subjects {
					if sub.rarity.Seen() != len(sub.stored) {
						t.Fatalf("%s n=%d step %d: Seen = %d, stored %d", sub.s.Name(), n, step, sub.rarity.Seen(), len(sub.stored))
					}
					for i := 0; i < n; i++ {
						want := 0
						for _, b := range sub.stored {
							if !b.Test(i) {
								want++
							}
						}
						if got := sub.rarity.Of(i); got != want {
							t.Fatalf("%s n=%d step %d: rarity(%d) = %d, recount %d", sub.s.Name(), n, step, i, got, want)
						}
					}
					planned := map[int]bool{}
					skip := func(i int) bool { return planned[i] }
					for {
						got := sub.s.NextRequest(own, avail, skip)
						want := refNextRequest(n, sub.stored, sub.tb, own, avail, skip)
						if got != want {
							t.Fatalf("%s n=%d step %d: NextRequest = %d, reference %d", sub.s.Name(), n, step, got, want)
						}
						if got < 0 {
							break
						}
						planned[got] = true
					}
				}
			}
			if enc.HistoryLen() != 3 {
				t.Fatalf("n=%d: history never filled (len %d); eviction unexercised", n, enc.HistoryLen())
			}
		}
	}
}

func TestNextRequestDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewLocalNeighborhood(500, true, rng)
	for id := 0; id < 10; id++ {
		s.Observe(id, randomBitmap(rng, 500, 0.5))
	}
	own, avail := randomBitmap(rng, 500, 0.3), full(500)
	var got int
	if allocs := testing.AllocsPerRun(100, func() { got = s.NextRequest(own, avail, nil) }); allocs != 0 {
		t.Fatalf("LocalNeighborhood.NextRequest: %v allocs, want 0", allocs)
	}
	if got < 0 {
		t.Fatal("NextRequest found nothing; the pin is vacuous")
	}
}

// TestObserveCopiesIntoStoredBitmap pins the contract both strategies give
// a caller that decodes every advertisement into one reused scratch bitmap:
// Observe keeps a copy, never the caller's bitmap, and re-observing a known
// peer overwrites that copy in place without allocating.
func TestObserveCopiesIntoStoredBitmap(t *testing.T) {
	type subject struct {
		s      Strategy
		stored map[int]*bitmap.Bitmap
		rarity *bitmap.Rarity
	}
	local, enc := NewLocalNeighborhood(100, false, nil), NewEncounterBased(100, 4, false, nil)
	for _, tc := range []subject{{local, local.neighbors, local.rarity}, {enc, enc.bitmaps, enc.rarity}} {
		scratch := mk(100, 1, 2, 3)
		tc.s.Observe(7, scratch)
		stored := tc.stored[7]
		if stored == scratch || !stored.Equal(mk(100, 1, 2, 3)) {
			t.Fatalf("%s: Observe stored the caller's bitmap or a wrong copy", tc.s.Name())
		}
		scratch.CopyFrom(mk(100, 50))
		// Rarity counts the observed bitmaps missing a packet.
		if !stored.Equal(mk(100, 1, 2, 3)) || tc.rarity.Of(50) != 1 {
			t.Fatalf("%s: reusing the caller's bitmap changed the strategy's state", tc.s.Name())
		}
		other := mk(100, 60)
		flip := false
		if allocs := testing.AllocsPerRun(100, func() {
			if flip = !flip; flip {
				tc.s.Observe(7, scratch)
			} else {
				tc.s.Observe(7, other)
			}
		}); allocs != 0 {
			t.Errorf("%s: re-observing a known peer costs %.1f allocs, want 0", tc.s.Name(), allocs)
		}
		if tc.stored[7] != stored {
			t.Errorf("%s: re-observe replaced the stored bitmap instead of copying into it", tc.s.Name())
		}
		// AllocsPerRun's 101 calls end on the scratch bitmap.
		if !stored.Equal(scratch) || tc.rarity.Of(50) != 0 || tc.rarity.Of(60) != 1 || tc.rarity.Seen() != 1 {
			t.Fatalf("%s: stored %v after alternating observes, rarity(50)=%d rarity(60)=%d",
				tc.s.Name(), stored.Ones(), tc.rarity.Of(50), tc.rarity.Of(60))
		}
	}
}
