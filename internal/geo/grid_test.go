package geo

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestGridInsertMoveQuery(t *testing.T) {
	t.Parallel()
	g := NewGrid(10)
	g.Insert(0, Point{X: 5, Y: 5})
	g.Insert(1, Point{X: 15, Y: 5})
	g.Insert(2, Point{X: 95, Y: 95})

	got := g.QueryRange(Point{X: 6, Y: 6}, 12, nil)
	want := []int{0, 1}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("QueryRange = %v, want %v", got, want)
	}

	// Moving within the same cell must not duplicate the entry.
	g.Move(0, Point{X: 6, Y: 6})
	if got := g.QueryRange(Point{X: 6, Y: 6}, 12, nil); len(got) != 2 {
		t.Fatalf("after same-cell move QueryRange = %v, want 2 ids", got)
	}

	// Moving far away removes it from the old neighborhood.
	g.Move(0, Point{X: 95, Y: 95})
	if got := g.QueryRange(Point{X: 6, Y: 6}, 12, nil); len(got) != 1 || got[0] != 1 {
		t.Fatalf("after far move QueryRange = %v, want [1]", got)
	}
	if got := g.QueryRange(Point{X: 95, Y: 95}, 5, nil); len(got) != 2 {
		t.Fatalf("destination cell QueryRange = %v, want ids 0 and 2", got)
	}

	g.Remove(2)
	g.Remove(2) // absent removal is a no-op
	if got := g.QueryRange(Point{X: 95, Y: 95}, 5, nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("after Remove QueryRange = %v, want [0]", got)
	}
}

func TestGridQueryRangeNegativeCoordinates(t *testing.T) {
	t.Parallel()
	g := NewGrid(25)
	g.Insert(0, Point{X: -40, Y: -40})
	g.Insert(1, Point{X: -10, Y: -10})
	g.Insert(2, Point{X: 40, Y: 40})
	got := g.QueryRange(Point{X: -30, Y: -30}, 30, nil)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("QueryRange around negative center = %v, want [0 1]", got)
	}
}

func TestGridRejectsBadCellSize(t *testing.T) {
	t.Parallel()
	for _, size := range []float64{0, -1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGrid(%v) did not panic", size)
				}
			}()
			NewGrid(size)
		}()
	}
}

// TestGridQueryMatchesBruteForce is the grid's core property: against random
// populations, cell sizes, and query discs, QueryRange must return a sorted
// superset of the brute-force in-range set, and must return exactly the
// brute-force set once filtered by true distance.
func TestGridQueryMatchesBruteForce(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		cell := 1 + rng.Float64()*80
		g := NewGrid(cell)
		n := 1 + rng.Intn(60)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: (rng.Float64() - 0.5) * 400, Y: (rng.Float64() - 0.5) * 400}
			g.Insert(i, pts[i])
		}
		// Shuffle some entries with Move, including same-cell moves.
		for j := 0; j < n/2; j++ {
			id := rng.Intn(n)
			pts[id] = Point{X: (rng.Float64() - 0.5) * 400, Y: (rng.Float64() - 0.5) * 400}
			g.Move(id, pts[id])
		}
		center := Point{X: (rng.Float64() - 0.5) * 400, Y: (rng.Float64() - 0.5) * 400}
		r := rng.Float64() * 150

		got := g.QueryRange(center, r, nil)
		if !sort.IntsAreSorted(got) {
			t.Fatalf("iter %d: QueryRange not sorted: %v", iter, got)
		}
		inGot := make(map[int]bool, len(got))
		for _, id := range got {
			inGot[id] = true
		}
		var filtered, want []int
		for _, id := range got {
			if center.Distance(pts[id]) <= r {
				filtered = append(filtered, id)
			}
		}
		for id, p := range pts {
			if center.Distance(p) <= r {
				want = append(want, id)
				if !inGot[id] {
					t.Fatalf("iter %d: id %d at %v within %v of %v missing from candidates",
						iter, id, p, r, center)
				}
			}
		}
		if len(filtered) != len(want) {
			t.Fatalf("iter %d: filtered candidates = %v, want %v", iter, filtered, want)
		}
		for i := range want {
			if filtered[i] != want[i] {
				t.Fatalf("iter %d: filtered candidates = %v, want %v", iter, filtered, want)
			}
		}
	}
}

func TestMaxSpeedBounds(t *testing.T) {
	t.Parallel()
	if v := MaxSpeedOf(Stationary{}); v != 0 {
		t.Fatalf("Stationary MaxSpeed = %v, want 0", v)
	}
	w := NewRandomDirection(RandomDirectionConfig{
		Area:     Rect{Width: 100, Height: 100},
		MinSpeed: 2, MaxSpeed: 9,
		RNG: rand.New(rand.NewSource(1)),
	})
	if v := MaxSpeedOf(w); v != 9 {
		t.Fatalf("RandomDirection MaxSpeed = %v, want 9", v)
	}
	// A misconfigured walker (MinSpeed > MaxSpeed) still draws legs between
	// the two values, so the bound must be the larger one, never 0.
	inverted := NewRandomDirection(RandomDirectionConfig{
		Area:     Rect{Width: 100, Height: 100},
		MinSpeed: 5,
		RNG:      rand.New(rand.NewSource(2)),
	})
	if v := MaxSpeedOf(inverted); v != 5 {
		t.Fatalf("inverted-config RandomDirection MaxSpeed = %v, want 5", v)
	}

	// Scripted: 100 m in 10 s then 50 m in 100 s -> bound 10 m/s.
	s := NewScripted([]Waypoint{
		{At: 0, Pos: Point{X: 0, Y: 0}},
		{At: 10 * time.Second, Pos: Point{X: 100, Y: 0}},
		{At: 110 * time.Second, Pos: Point{X: 150, Y: 0}},
	})
	if v := MaxSpeedOf(s); math.Abs(v-10) > 1e-9 {
		t.Fatalf("Scripted MaxSpeed = %v, want 10", v)
	}

	// A teleport (two waypoints at the same instant) has no finite bound.
	tp := NewScripted([]Waypoint{
		{At: time.Second, Pos: Point{X: 0, Y: 0}},
		{At: time.Second, Pos: Point{X: 5, Y: 0}},
	})
	if v := MaxSpeedOf(tp); !math.IsInf(v, 1) {
		t.Fatalf("teleporting Scripted MaxSpeed = %v, want +Inf", v)
	}

	// An unknown model without Speeder has no bound either.
	if v := MaxSpeedOf(plainMobility{}); !math.IsInf(v, 1) {
		t.Fatalf("unknown model MaxSpeed = %v, want +Inf", v)
	}

	// The walker's actual excursions must respect the reported bound.
	var prev Point
	prevT := time.Duration(0)
	for ti := time.Duration(0); ti <= 5*time.Minute; ti += 500 * time.Millisecond {
		p := w.PositionAt(ti)
		if ti > 0 {
			dt := (ti - prevT).Seconds()
			if d := prev.Distance(p); d > 9*dt+1e-6 {
				t.Fatalf("walker moved %v m in %v s, exceeds MaxSpeed 9", d, dt)
			}
		}
		prev, prevT = p, ti
	}
}

// plainMobility implements Mobility but not Speeder.
type plainMobility struct{}

func (plainMobility) PositionAt(time.Duration) Point { return Point{} }

// TestGridNearProperty drives random Insert/Move/Remove sequences and holds
// every Near answer to its contract: sorted, duplicate-free, a superset of
// QueryRange from the same point, and equal to the answer a freshly built
// grid with the same entries gives, so a cached answer never outlives a
// cell change. Same-cell moves must keep the cache valid, and a repeated
// query with no mutation in between must not allocate. Not parallel:
// testing.AllocsPerRun counts the allocations of every goroutine.
func TestGridNearProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 100; iter++ {
		cell := 5 + rng.Float64()*60
		g := NewGrid(cell)
		const n = 40
		pts := make(map[int]Point)
		randPoint := func() Point {
			return Point{X: (rng.Float64() - 0.5) * 300, Y: (rng.Float64() - 0.5) * 300}
		}
		r := cell * (0.5 + rng.Float64()*2)
		if rng.Intn(4) == 0 {
			r = 1.5 * cell // the medium's radius
		}
		queries := []Point{randPoint(), randPoint(), randPoint()}
		for step := 0; step < 200; step++ {
			id := rng.Intn(n)
			before := g.version
			switch rng.Intn(4) {
			case 0, 1, 2:
				p := randPoint()
				old, had := pts[id]
				if had && rng.Intn(3) == 0 {
					p = old.Add(rng.Float64()*0.01, 0) // often stays in its cell
				}
				sameCell := had && g.cellFor(p) == g.cellFor(old)
				if rng.Intn(2) == 0 {
					g.Insert(id, p)
				} else {
					g.Move(id, p)
				}
				pts[id] = p
				if sameCell && g.version != before {
					t.Fatalf("iter %d: a same-cell move invalidated Near's cache", iter)
				}
			case 3:
				g.Remove(id)
				delete(pts, id)
			}
			if step%7 != 0 {
				continue
			}
			fresh := NewGrid(cell)
			for id, p := range pts {
				fresh.Insert(id, p)
			}
			for _, q := range queries {
				got := g.Near(q, r)
				if !sort.IntsAreSorted(got) {
					t.Fatalf("iter %d step %d: Near not sorted: %v", iter, step, got)
				}
				for i := 1; i < len(got); i++ {
					if got[i] == got[i-1] {
						t.Fatalf("iter %d step %d: Near repeats id %d: %v", iter, step, got[i], got)
					}
				}
				in := make(map[int]bool, len(got))
				for _, id := range got {
					in[id] = true
				}
				for _, id := range g.QueryRange(q, r, nil) {
					if !in[id] {
						t.Fatalf("iter %d step %d: QueryRange id %d missing from Near %v", iter, step, id, got)
					}
				}
				want := fresh.Near(q, r)
				if len(got) != len(want) {
					t.Fatalf("iter %d step %d: cached Near = %v, fresh grid %v", iter, step, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("iter %d step %d: cached Near = %v, fresh grid %v", iter, step, got, want)
					}
				}
			}
		}
		q := queries[0]
		g.Near(q, r)
		if a := testing.AllocsPerRun(50, func() { g.Near(q, r) }); a != 0 {
			t.Fatalf("iter %d: repeated Near allocates %.1f times per call, want 0", iter, a)
		}
	}
}
