// Package rpf implements the Rarest-Piece-First data fetching strategies of
// Section IV-E:
//
//   - LocalNeighborhood: rarity is computed over the bitmaps of peers
//     currently within communication range. State expires when peers
//     disconnect, so no long-term state is kept.
//   - EncounterBased: rarity is computed over the bitmaps of the last N
//     encountered peers, approximating rarity across the whole swarm at the
//     cost of per-peer history.
//
// Both support the paper's "same packet" versus "random packet" start: with
// RandomStart, rarity ties break by a per-peer random permutation instead of
// ascending index, which diversifies the first requests across peers
// (Section VI-C reports 11–15% faster downloads).
package rpf

import (
	"math/rand"
	"sort"

	"dapes/internal/bitmap"
)

// Strategy chooses which missing packet to request next.
type Strategy interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// Observe folds a peer's advertised bitmap into rarity state.
	Observe(peerID int, bm *bitmap.Bitmap)
	// Disconnect signals that a peer left communication range.
	Disconnect(peerID int)
	// NextRequest returns the global index of the next packet to request:
	// the rarest packet that the local peer is missing, that is available
	// from at least one currently reachable peer (per the availability
	// bitmap), and for which skip returns false (e.g. already in flight).
	// It returns -1 when no packet qualifies.
	NextRequest(own, available *bitmap.Bitmap, skip func(int) bool) int
}

// tieBreaker orders packets with equal rarity.
type tieBreaker struct {
	randomStart bool
	perm        []int // perm[i] = rank of index i when randomStart
}

func newTieBreaker(n int, randomStart bool, rng *rand.Rand) tieBreaker {
	tb := tieBreaker{randomStart: randomStart}
	if randomStart {
		p := rng.Perm(n)
		tb.perm = make([]int, n)
		for rank, idx := range p {
			tb.perm[idx] = rank
		}
	}
	return tb
}

// rank returns the tie-break rank of packet i (lower requests earlier).
func (tb tieBreaker) rank(i int) int {
	if tb.randomStart && i < len(tb.perm) {
		return tb.perm[i]
	}
	return i
}

// selectRarest scans for the eligible packet with the highest rarity,
// breaking ties with tb. Rarity is read from the strategy's running counts,
// so a candidate costs O(1) however many bitmaps they summarize.
func selectRarest(rarity *bitmap.Rarity, n int, own, available *bitmap.Bitmap, skip func(int) bool, tb tieBreaker) int {
	best := -1
	bestRarity := -1
	bestRank := 0
	for i := 0; i < n; i++ {
		if own.Test(i) || !available.Test(i) {
			continue
		}
		if skip != nil && skip(i) {
			continue
		}
		r := rarity.Of(i)
		if r > bestRarity || (r == bestRarity && tb.rank(i) < bestRank) {
			best, bestRarity, bestRank = i, r, tb.rank(i)
		}
	}
	return best
}

// LocalNeighborhood is the local-neighborhood RPF variant: rarity counts how
// many currently connected peers are missing each packet.
type LocalNeighborhood struct {
	n         int
	tb        tieBreaker
	neighbors map[int]*bitmap.Bitmap
	// rarity holds the missing counts over exactly the bitmaps in
	// neighbors, updated as they are stored, replaced and dropped.
	rarity *bitmap.Rarity
}

var _ Strategy = (*LocalNeighborhood)(nil)

// NewLocalNeighborhood returns the strategy for a collection of n packets.
// rng is used only when randomStart is set.
func NewLocalNeighborhood(n int, randomStart bool, rng *rand.Rand) *LocalNeighborhood {
	return &LocalNeighborhood{
		n:         n,
		tb:        newTieBreaker(n, randomStart, rng),
		neighbors: make(map[int]*bitmap.Bitmap),
		rarity:    bitmap.NewRarity(n),
	}
}

// Name implements Strategy.
func (s *LocalNeighborhood) Name() string { return "local-neighborhood" }

// Observe implements Strategy: the latest bitmap per connected peer wins.
// bm is copied, into the peer's stored bitmap when it has one.
func (s *LocalNeighborhood) Observe(peerID int, bm *bitmap.Bitmap) {
	if bm.Len() != s.n {
		return
	}
	s.neighbors[peerID] = store(s.rarity, s.neighbors[peerID], bm)
}

// store folds bm into rarity in place of old, the bitmap stored for the
// same peer (nil if none), and returns the stored copy: old overwritten, or
// a clone on first sight. Every stored bitmap has passed its strategy's
// length check, so the rarity updates cannot fail.
func store(rarity *bitmap.Rarity, old, bm *bitmap.Bitmap) *bitmap.Bitmap {
	if old == nil {
		old = bm.Clone()
	} else {
		_ = rarity.Forget(old)
		old.CopyFrom(bm)
	}
	_ = rarity.Observe(old)
	return old
}

// Disconnect implements Strategy: per the paper, the rarity list is specific
// to the connected set and expires on disconnect.
func (s *LocalNeighborhood) Disconnect(peerID int) {
	if old, ok := s.neighbors[peerID]; ok {
		_ = s.rarity.Forget(old) // every stored bitmap passed Observe's length check
		delete(s.neighbors, peerID)
	}
}

// NeighborCount returns the number of peers with live bitmaps.
func (s *LocalNeighborhood) NeighborCount() int { return len(s.neighbors) }

// NextRequest implements Strategy.
func (s *LocalNeighborhood) NextRequest(own, available *bitmap.Bitmap, skip func(int) bool) int {
	return selectRarest(s.rarity, s.n, own, available, skip, s.tb)
}

// EncounterBased is the encounter-history RPF variant: rarity counts how many
// of the last HistorySize encountered peers were missing each packet,
// regardless of whether they are still in range.
type EncounterBased struct {
	n       int
	tb      tieBreaker
	history int
	order   []int // peer IDs, oldest first
	bitmaps map[int]*bitmap.Bitmap
	// rarity holds the missing counts over exactly the bitmaps in bitmaps,
	// updated as they are stored, refreshed and evicted.
	rarity *bitmap.Rarity
}

var _ Strategy = (*EncounterBased)(nil)

// NewEncounterBased returns the strategy remembering up to history peers.
func NewEncounterBased(n, history int, randomStart bool, rng *rand.Rand) *EncounterBased {
	if history < 1 {
		history = 1
	}
	return &EncounterBased{
		n:       n,
		tb:      newTieBreaker(n, randomStart, rng),
		history: history,
		bitmaps: make(map[int]*bitmap.Bitmap),
		rarity:  bitmap.NewRarity(n),
	}
}

// Name implements Strategy.
func (s *EncounterBased) Name() string { return "encounter-based" }

// Observe implements Strategy: re-observing a known peer refreshes its bitmap
// (copied in place) and recency; new peers evict the oldest entry beyond the
// history bound.
func (s *EncounterBased) Observe(peerID int, bm *bitmap.Bitmap) {
	if bm.Len() != s.n {
		return
	}
	old := s.bitmaps[peerID]
	if old != nil {
		for i, id := range s.order {
			if id == peerID {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	}
	s.order = append(s.order, peerID)
	s.bitmaps[peerID] = store(s.rarity, old, bm)
	for len(s.order) > s.history {
		oldest := s.order[0]
		s.order = s.order[1:]
		_ = s.rarity.Forget(s.bitmaps[oldest]) // stored, so length-checked
		delete(s.bitmaps, oldest)
	}
}

// Disconnect implements Strategy: encounter history survives disconnection.
func (s *EncounterBased) Disconnect(int) {}

// HistoryLen returns the number of remembered encounters.
func (s *EncounterBased) HistoryLen() int { return len(s.order) }

// NextRequest implements Strategy.
func (s *EncounterBased) NextRequest(own, available *bitmap.Bitmap, skip func(int) bool) int {
	return selectRarest(s.rarity, s.n, own, available, skip, s.tb)
}

// RequestPlan returns up to limit next requests in strategy order without
// mutating state; useful for pipelined fetching and for tests.
func RequestPlan(s Strategy, own, available *bitmap.Bitmap, limit int) []int {
	planned := make(map[int]bool, limit)
	var out []int
	for len(out) < limit {
		next := s.NextRequest(own, available, func(i int) bool { return planned[i] })
		if next < 0 {
			break
		}
		planned[next] = true
		out = append(out, next)
	}
	return out
}

// SortByRarity returns the given packet indices ordered by descending rarity
// according to counts, tie-broken ascending; exported for the experiment
// harness's diagnostics.
func SortByRarity(indices []int, counts func(int) int) []int {
	out := append([]int(nil), indices...)
	sort.SliceStable(out, func(a, b int) bool {
		ra, rb := counts(out[a]), counts(out[b])
		if ra != rb {
			return ra > rb
		}
		return out[a] < out[b]
	})
	return out
}
