package phy

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"dapes/internal/geo"
	"dapes/internal/sim"
)

// The drift-prefilter soundness tests place receivers where the prefilter's
// bound is tight: a receiver lands at exactly Range from the query center
// after moving at exactly the medium's top speed for as long as the grid
// tolerates before re-bucketing, so its gridPos lies exactly Range+drift
// away. Every direction below is a 3-4-5 or axis unit vector and every
// distance a multiple of 5 m, so positions, distances and speeds are exact
// in float64 and the receivers sit on the bound, not near it.

// prefilterCenter is the query center (and the sender's position).
var prefilterCenter = geo.Point{X: 300, Y: 300}

// exactDirections are unit vectors whose multiples of 5 have integer
// coordinates.
var exactDirections = []geo.Point{
	{X: 1}, {X: -1}, {Y: 1}, {Y: -1},
	{X: 0.6, Y: 0.8}, {X: -0.6, Y: 0.8}, {X: 0.6, Y: -0.8}, {X: -0.6, Y: -0.8},
	{X: 0.8, Y: 0.6}, {X: -0.8, Y: 0.6}, {X: 0.8, Y: -0.6}, {X: -0.8, Y: -0.6},
}

// radialPath returns a scripted walker along direction u from
// prefilterCenter, at the given (time in seconds, distance in meters)
// waypoints. Consecutive waypoints must be 10 m per second apart, so every
// walker's speed bound is exactly 10 m/s.
func radialPath(u geo.Point, legs ...[2]float64) *geo.Scripted {
	wps := make([]geo.Waypoint, len(legs))
	for i, l := range legs {
		wps[i] = geo.Waypoint{
			At:  time.Duration(l[0] * float64(time.Second)),
			Pos: prefilterCenter.Add(l[1]*u.X, l[1]*u.Y),
		}
	}
	return geo.NewScripted(wps)
}

// TestPrefilterSoundAtDriftBoundLocal pins the local query
// (candidatesInRange) at the prefilter's bound. Range 60 gives a slack of
// 30 m, which a 10 m/s walker uses up in 3 s; the grid re-buckets only once
// the drift exceeds the slack, so at t=3s walkers that started 90 m out
// are exactly 60 m away while still bucketed at 90 m. A second set of
// walkers is re-bucketed mid-approach (t=11s) and arrives at t=14s, which
// requires the re-bucketing to have refreshed their gridPos. The neighbor
// sets must equal the naive scan's at every query, and contain the
// walkers on the bound.
func TestPrefilterSoundAtDriftBoundLocal(t *testing.T) {
	t.Parallel()
	run := func(mode IndexMode) map[time.Duration][]int {
		k := sim.NewKernel(1)
		m := NewMedium(k, Config{Range: 60, Index: mode})
		sender := m.Attach(geo.Stationary{At: prefilterCenter})
		for _, u := range exactDirections {
			m.Attach(radialPath(u, [2]float64{0, 90}, [2]float64{3, 60}))
			m.Attach(radialPath(u, [2]float64{0, 200}, [2]float64{14, 60}))
		}
		got := make(map[time.Duration][]int)
		for _, s := range []float64{0, 1, 2, 3, 11, 14} {
			at := time.Duration(s * float64(time.Second))
			k.ScheduleFuncAt(at, func() { got[at] = m.Neighbors(sender) })
		}
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		return got
	}
	grid, naive := run(IndexGrid), run(IndexNaive)
	if !reflect.DeepEqual(grid, naive) {
		t.Fatalf("grid neighbor sets diverged from the naive scan:\n grid  %v\n naive %v", grid, naive)
	}
	n := len(exactDirections)
	if got := len(grid[3*time.Second]); got != n {
		t.Fatalf("t=3s: %d neighbors, want the %d walkers on the drift bound", got, n)
	}
	if got := len(grid[14*time.Second]); got != 2*n {
		t.Fatalf("t=14s: %d neighbors, want all %d walkers", got, 2*n)
	}
}

// TestPrefilterSoundAtDriftBoundCrossShard pins the cross-shard query
// (candidatesAroundAt) at the prefilter's bound, in two parts.
//
// First, through a real two-stripe ShardedMedium with parallel workers, so
// the race detector sees the Near cache written at the merge barrier:
// walkers homed on shard 1 reach exactly Range from a shard-0 sender at
// the instant it transmits, still bucketed Range+drift away, and a second
// set arrives after shard 1 has re-bucketed them mid-approach. Each
// transmission must reach exactly the walkers in range.
//
// Second, directly on one medium at now=4s right after a re-bucket, for
// transmission times whose drift bound (top speed times the distance from
// the bucketing times) is exactly the slack (the cached Near path), above
// it (the widened QueryRange fallback), in the future, and for a walker
// attached after the re-bucket, which is bucketed later than lastSync.
// Each answer must equal an exact scan and include the walkers on the
// bound.
func TestPrefilterSoundAtDriftBoundCrossShard(t *testing.T) {
	t.Parallel()
	n := len(exactDirections)

	t.Run("sharded", func(t *testing.T) {
		cfg := Config{Range: 60}
		sk := sim.NewShardedKernel(3, 2, cfg.ConservativeLookahead(), sim.ShardOptions{})
		defer sk.Close()
		sm := NewShardedMedium(sk, cfg)
		sender := sm.Medium(0).Attach(geo.Stationary{At: prefilterCenter})
		rx := sm.Medium(1)
		heard := make(map[time.Duration]int)
		for _, u := range exactDirections {
			for _, mob := range []geo.Mobility{
				radialPath(u, [2]float64{0, 80}, [2]float64{2, 60}),
				radialPath(u, [2]float64{0, 200}, [2]float64{14, 60}),
			} {
				r := rx.Attach(mob)
				r.SetHandler(func(Frame) { heard[rx.kernel.Now()]++ })
			}
		}
		payload := []byte{1, 2, 3}
		var sends []time.Duration
		for _, s := range []float64{1.9, 2, 11, 14} {
			at := time.Duration(s * float64(time.Second))
			sends = append(sends, at)
			sender.medium.kernel.ScheduleFuncAt(at, func() { sender.medium.Broadcast(sender, payload) })
		}
		if err := sk.Run(15 * time.Second); err != nil {
			t.Fatal(err)
		}
		airtime := cfg.TxDuration(len(payload)) + time.Microsecond
		// The first walkers stay at 60 m once they arrive.
		want := map[time.Duration]int{sends[1] + airtime: n, sends[2] + airtime: n, sends[3] + airtime: 2 * n}
		if !reflect.DeepEqual(heard, want) {
			t.Fatalf("deliveries by time = %v, want %v", heard, want)
		}
	})

	t.Run("direct", func(t *testing.T) {
		k := sim.NewKernel(1)
		m := NewMedium(k, Config{Range: 60})
		anchor := m.Attach(geo.Stationary{At: prefilterCenter})
		onBound := make(map[time.Duration][]*Radio)
		add := func(at float64, mob geo.Mobility) {
			d := time.Duration(at * float64(time.Second))
			onBound[d] = append(onBound[d], m.Attach(mob))
		}
		for _, u := range exactDirections {
			add(1, radialPath(u, [2]float64{0, 50}, [2]float64{1, 60}, [2]float64{4, 90}))     // drift 30 at 1s
			add(0.5, radialPath(u, [2]float64{0, 55}, [2]float64{0.5, 60}, [2]float64{4, 95})) // drift 35 at 0.5s
			add(7, radialPath(u, [2]float64{0, 130}, [2]float64{4, 90}, [2]float64{7, 60}))    // drift 30 at 7s
		}
		check := func(at time.Duration) {
			t.Helper()
			got := idsOf(m.candidatesAroundAt(prefilterCenter, at))
			var want []int
			for _, r := range m.radios {
				if prefilterCenter.Distance(r.mobility.PositionAt(at)) <= m.cfg.Range {
					want = append(want, r.id)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("now=%v at=%v: candidates %v, exact scan %v", m.posNow, at, got, want)
			}
			in := make(map[int]bool, len(got))
			for _, id := range got {
				in[id] = true
			}
			for _, r := range onBound[at] {
				if !in[r.id] {
					t.Fatalf("now=%v at=%v: walker %d on the drift bound missing from %v", m.posNow, at, r.id, got)
				}
			}
		}
		k.ScheduleFuncAt(4*time.Second, func() {
			m.Neighbors(anchor) // 40 m of drift: re-bucket at 4s
			if m.lastSync != 4*time.Second {
				t.Fatalf("test setup: lastSync = %v, want 4s", m.lastSync)
			}
			for _, s := range []float64{1, 0.5, 7, 4, 3.5} {
				check(time.Duration(s * float64(time.Second)))
			}
		})
		k.ScheduleFuncAt(6*time.Second, func() {
			// Bucketed at 6s, two seconds after lastSync: at t=3s these
			// walkers are 30 m from their gridPos, not the 10 m that
			// |at−lastSync| alone would allow.
			for _, u := range exactDirections {
				add(3, radialPath(u, [2]float64{3, 60}, [2]float64{6, 90}))
			}
			check(3 * time.Second)
		})
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		if got := len(onBound[3*time.Second]); got != n {
			t.Fatalf("late walkers = %d, want %d", got, n)
		}
	})
}

func idsOf(rs []*Radio) []int {
	ids := make([]int, 0, len(rs))
	for _, r := range rs {
		ids = append(ids, r.id)
	}
	if !sort.IntsAreSorted(ids) {
		panic(fmt.Sprintf("candidates out of ID order: %v", ids))
	}
	return ids
}
