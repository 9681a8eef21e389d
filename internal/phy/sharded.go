package phy

import (
	"math"
	"time"

	"dapes/internal/geo"
	"dapes/internal/sim"
)

// ShardedMedium composes one Medium per shard of a sim.ShardedKernel into a
// single logical broadcast channel. Each member medium owns the radios
// homed in its spatial region (callers assign homes with a geo.Stripes
// partition and attach through Medium(i)) and keeps its own grid, position
// cache, and reception pools — all touched only by its shard's goroutine. A
// broadcast delivers locally through the sender's own medium exactly as in
// the sequential path, and is additionally staged toward every sibling
// shard whose occupancy mask says someone might be in range; at the next
// window barrier the staged transmissions are merged directly into the
// target mediums (deliverForeign), whose grids then decide which radios
// actually hear. Radios therefore stay owned by their home shard even when
// a mobility model wanders across the stripe boundary — ownership affects
// only which goroutine runs their events, never who hears them.
//
// The composition also drives the kernel's window batching: a window
// oracle derived from the same occupancy masks reports the earliest time
// any shard's radio could possibly reach another shard's stripe, so on
// sparse boundaries the kernel runs one long window where lockstep ran
// hundreds. Both the sender-side cull and the oracle are conservative
// (mask drift bounds, see Medium.maskExcludes) and therefore
// trace-preserving: a culled handoff is exactly a staged handoff that
// would have found zero candidates, and an extended window provably
// carries no cross-shard traffic. Under IndexNaive there is no grid to
// derive masks from, so culling and batching quietly disable themselves.
//
// With one shard no cross hook is installed and the single member medium
// is byte-identical to a standalone Medium (same IDs, same schedule, same
// RNG draws) — that is the executable bridge that lets the experiment
// layer run its sequential trials as one-stripe worlds
// (TestShardedMediumSingleShardMatchesMedium gates it).
type ShardedMedium struct {
	sk      *sim.ShardedKernel
	mediums []*Medium
	nextID  int

	// stage[from].rows[to] holds the broadcasts shard `from` offered to
	// shard `to` during the current window. Each row is appended by the
	// sending shard's goroutine only and drained by the coordinator at the
	// barrier; the per-shard padding keeps neighboring shards' slice
	// headers off one cache line.
	stage []shardStage

	// gaps caches the minimum column distance between two mediums'
	// published masks, keyed by their versions (upper triangle only; the
	// distance is symmetric). Coordinator-only, touched by windowQuiet.
	gaps [][]gapEntry

	// noCull disables the sender-side mask cull (test hook: the
	// trace-neutrality gate runs the same workload with and without
	// culling and requires byte-identical traces).
	noCull bool
}

// foreignTx is one staged cross-shard transmission: everything
// deliverForeign needs, captured at Broadcast time. Plain data — staging a
// handoff allocates no closure.
type foreignTx struct {
	center     geo.Point
	fromID     int
	payload    []byte
	size       int
	start, end time.Duration
}

// shardStage is one sending shard's staging rows plus its cull counter,
// padded so adjacent senders never share a cache line.
type shardStage struct {
	rows   [][]foreignTx
	culled uint64
	_      [40]byte
}

// gapEntry memoizes minColGap for one medium pair at one mask-version pair.
type gapEntry struct {
	va, vb uint64
	d      int64
}

// NewShardedMedium creates one member medium per shard of sk, all sharing
// cfg and a global radio-identity counter (Frame.From stays unique across
// the whole world). With more than one shard it installs the cross-shard
// staging hook on every member, the barrier merge on the kernel, and —
// when the index mode provides a grid — the occupancy-mask window oracle.
// The oracle assumes the radio population is attached before Run (a radio
// attached mid-window is invisible to the published masks until the next
// barrier); every DAPES scenario builds its world up front.
func NewShardedMedium(sk *sim.ShardedKernel, cfg Config) *ShardedMedium {
	sm := &ShardedMedium{sk: sk, mediums: make([]*Medium, sk.Shards())}
	for i := range sm.mediums {
		m := NewMedium(sk.Shard(i), cfg)
		m.shard = i
		m.nextID = &sm.nextID
		if sk.Shards() > 1 {
			m.cross = sm
		}
		sm.mediums[i] = m
	}
	if n := sk.Shards(); n > 1 {
		sm.stage = make([]shardStage, n)
		sm.gaps = make([][]gapEntry, n)
		for i := range sm.stage {
			sm.stage[i].rows = make([][]foreignTx, n)
			sm.gaps[i] = make([]gapEntry, n)
		}
		for _, m := range sm.mediums {
			m.enableColTracking()
		}
		sk.SetBarrierMerge(sm.mergeBarrier)
		sk.SetWindowOracle(sm.windowQuiet)
	}
	return sm
}

// Shards returns the shard count.
func (sm *ShardedMedium) Shards() int { return len(sm.mediums) }

// Medium returns shard i's member medium; attach a radio through the
// medium of its home shard (the stripe of its initial position).
func (sm *ShardedMedium) Medium(i int) *Medium { return sm.mediums[i] }

// Config returns the shared effective configuration.
func (sm *ShardedMedium) Config() Config { return sm.mediums[0].Config() }

// Stats sums the member mediums' counters. Transmissions count once (on
// the sender's home medium); deliveries, collisions, and losses count at
// the receiving radio's medium.
func (sm *ShardedMedium) Stats() Stats {
	var total Stats
	for _, m := range sm.mediums {
		s := m.Stats()
		total.Transmissions += s.Transmissions
		total.Deliveries += s.Deliveries
		total.Collisions += s.Collisions
		total.Lost += s.Lost
		total.Jammed += s.Jammed
		total.BytesSent += s.BytesSent
	}
	return total
}

// handoff stages one broadcast toward every shard except the sender's —
// unless the target's occupancy mask proves none of its radios can lie in
// range at the transmission start, in which case the handoff is culled.
// Culling is trace-neutral by construction: a culled handoff is exactly a
// staged handoff whose deliverForeign would have found zero candidates,
// and a zero-candidate merge schedules nothing, draws nothing, and
// consumes no event sequence number. Runs on the sending shard's
// goroutine; it writes only that shard's staging rows and reads only the
// immutable mask snapshots published at the previous barrier.
func (sm *ShardedMedium) handoff(fromShard int, center geo.Point, fromID int, payload []byte, size int, start, end time.Duration) {
	st := &sm.stage[fromShard]
	for to, target := range sm.mediums {
		if to == fromShard {
			continue
		}
		if !sm.noCull && target.maskExcludes(center.X, start) {
			st.culled++
			continue
		}
		st.rows[to] = append(st.rows[to], foreignTx{
			center: center, fromID: fromID, payload: payload, size: size, start: start, end: end,
		})
	}
}

// culledTotal sums the per-shard cull counters (read at quiescence only).
func (sm *ShardedMedium) culledTotal() uint64 {
	var n uint64
	for i := range sm.stage {
		n += sm.stage[i].culled
	}
	return n
}

// mergeBarrier is the kernel's barrier merge hook: with every shard parked
// at the barrier it drains the staging rows in (from, to) order — the same
// deterministic order the lockstep flush used — delivering each staged
// transmission directly into its target medium, then republishes every
// medium's occupancy mask for the next window's culls and oracle calls.
// Direct delivery (rather than wrapping each handoff in a kernel event)
// means a window that staged nothing costs the barrier nothing, and the
// merge's own ordering no longer depends on where the barrier happened to
// fall — which is what lets batched and lockstep windowing produce the
// same trace.
func (sm *ShardedMedium) mergeBarrier() {
	for from := range sm.stage {
		rows := sm.stage[from].rows
		for to, txs := range rows {
			if len(txs) == 0 {
				continue
			}
			target := sm.mediums[to]
			for i := range txs {
				tx := &txs[i]
				target.deliverForeign(tx.center, tx.fromID, tx.payload, tx.size, tx.start, tx.end)
			}
			for i := range txs {
				txs[i] = foreignTx{} // drop the payload references
			}
			rows[to] = txs[:0]
		}
	}
	for _, m := range sm.mediums {
		m.publishCols()
	}
}

// windowQuiet is the kernel's window oracle: given a window start, it
// returns the earliest virtual time at which any shard's radio could
// possibly generate a cross-shard effect — i.e. escape the sender-side
// cull toward some sibling. Until then no handoff can be staged, so the
// kernel may run one window straight through. Derived pairwise from the
// published occupancy masks: two stripes whose occupied columns are
// gapMeters apart, closing at the sum of their speed bounds, cannot touch
// before the gap shrinks to one radio range plus both drift allowances.
// Any medium without a published bounded mask (IndexNaive, unbounded
// movers, nothing published yet) makes the pair — and hence the window —
// inextensible. Coordinator-only; runs between windows.
func (sm *ShardedMedium) windowQuiet(start time.Duration) time.Duration {
	quiet := time.Duration(math.MaxInt64)
	for a := 0; a < len(sm.mediums); a++ {
		for b := a + 1; b < len(sm.mediums); b++ {
			q := sm.pairQuiet(a, b, start)
			if q <= start {
				return start
			}
			if q < quiet {
				quiet = q
			}
		}
	}
	return quiet
}

// pairQuiet bounds the earliest contact between mediums a and b (symmetric
// in its arguments: gap, drift sum, and closing speed do not care which
// side transmits). The geometry mirrors maskExcludes: a sender is within
// its own mask column ± its drift; the cull passes when the sender comes
// within range-plus-drift of a target column, widened by the cull's own
// one-column safety margins — subtracting two whole columns from the raw
// column distance absorbs all of them, so "quiet until t" here implies
// "maskExcludes holds before t" exactly.
func (sm *ShardedMedium) pairQuiet(a, b int, start time.Duration) time.Duration {
	pa, pb := sm.mediums[a].pub, sm.mediums[b].pub
	if pa == nil || pb == nil {
		return start // no mask yet (or ever): nothing to reason from
	}
	if len(pa.cols) == 0 || len(pb.cols) == 0 {
		return time.Duration(math.MaxInt64) // an empty side can neither send nor hear
	}
	if math.IsInf(pa.maxSpeed, 1) || math.IsInf(pb.maxSpeed, 1) {
		return start // unbounded movers: masks bound nothing
	}
	g := &sm.gaps[a][b]
	if g.va != pa.version || g.vb != pb.version {
		g.va, g.vb = pa.version, pb.version
		g.d = minColGap(pa.cols, pb.cols)
	}
	cell := sm.mediums[a].cfg.Range // column width == radio range, by construction
	gapMeters := (float64(g.d) - 2) * cell
	drift := 0.0
	if start > pa.syncedAt {
		drift += pa.maxSpeed * (start - pa.syncedAt).Seconds()
	}
	if start > pb.syncedAt {
		drift += pb.maxSpeed * (start - pb.syncedAt).Seconds()
	}
	slack := gapMeters - cell - drift // cell == Range: one radio range of reach
	if slack <= 0 {
		return start
	}
	closing := pa.maxSpeed + pb.maxSpeed
	if closing == 0 {
		return time.Duration(math.MaxInt64) // both sides static and out of reach
	}
	// Duration conversion truncates toward zero — rounding the quiet bound
	// down, never up, so float error cannot extend a window too far.
	return start + time.Duration(slack/closing*float64(time.Second))
}

// minColGap returns the minimum absolute difference between any element of
// two sorted column lists (0 when they overlap), by a single merge pass.
func minColGap(a, b []int64) int64 {
	best := int64(math.MaxInt64)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		d := a[i] - b[j]
		if d < 0 {
			d = -d
		}
		if d < best {
			best = d
			if best == 0 {
				return 0
			}
		}
		if a[i] < b[j] {
			i++
		} else {
			j++
		}
	}
	return best
}
