package geo

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// refLeg and refWalker are the random-direction walk as it was evaluated
// before legs cached their heading's cosine and sine and the walker kept a
// cursor: the heading is stored as an angle, every position calls math.Cos
// and math.Sin, and every query binary-searches the legs. The generator
// draws the same random numbers in the same order as RandomDirection.
type refLeg struct {
	start    time.Duration
	from     Point
	angle    float64
	speed    float64
	duration time.Duration
}

func (l refLeg) end() time.Duration { return l.start + l.duration }

func (l refLeg) positionAt(t time.Duration) Point {
	if t < l.start {
		t = l.start
	}
	if t > l.end() {
		t = l.end()
	}
	dt := (t - l.start).Seconds()
	return l.from.Add(l.speed*dt*math.Cos(l.angle), l.speed*dt*math.Sin(l.angle))
}

type refWalker struct {
	cfg  RandomDirectionConfig
	legs []refLeg
}

func newRefWalker(cfg RandomDirectionConfig) *refWalker {
	w := &refWalker{cfg: cfg}
	w.legs = append(w.legs, w.nextLeg(0, cfg.Area.Clamp(cfg.Start)))
	return w
}

func (w *refWalker) nextLeg(start time.Duration, from Point) refLeg {
	c := w.cfg
	angle := c.RNG.Float64() * 2 * math.Pi
	speed := c.MinSpeed + c.RNG.Float64()*(c.MaxSpeed-c.MinSpeed)
	dur := c.MinLeg + time.Duration(c.RNG.Int63n(int64(c.MaxLeg-c.MinLeg)+1))
	leg := refLeg{start: start, from: from, angle: angle, speed: speed, duration: dur}
	if !c.Area.Contains(leg.positionAt(leg.end())) {
		lo, hi := time.Duration(0), leg.duration
		for i := 0; i < 40 && hi-lo > time.Millisecond; i++ {
			mid := (lo + hi) / 2
			if c.Area.Contains(leg.positionAt(leg.start + mid)) {
				lo = mid
			} else {
				hi = mid
			}
		}
		leg.duration = lo
	}
	return leg
}

func (w *refWalker) PositionAt(t time.Duration) Point {
	for {
		last := w.legs[len(w.legs)-1]
		if t <= last.end() {
			break
		}
		from := w.cfg.Area.Clamp(last.positionAt(last.end()))
		w.legs = append(w.legs, w.nextLeg(last.end(), from))
	}
	lo, hi := 0, len(w.legs)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if w.legs[mid].start <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return w.cfg.Area.Clamp(w.legs[lo].positionAt(t))
}

// TestRandomDirectionMatchesReferenceBitExact holds PositionAt to the
// reference evaluation bit for bit over random walkers and every query
// pattern the cursor must survive: monotone sweeps, repeated timestamps,
// jumps backwards, and queries at the exact start and end of every leg.
// Small, fast-walker areas make walkers hit the wall often, which produces
// zero-length legs (several legs sharing one start time); the test requires
// that it saw some.
func TestRandomDirectionMatchesReferenceBitExact(t *testing.T) {
	t.Parallel()
	same := func(a, b Point) bool {
		return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
	}
	rng := rand.New(rand.NewSource(11))
	zeroLegs := 0
	for iter := 0; iter < 60; iter++ {
		side := 5 + rng.Float64()*200
		cfgFor := func() RandomDirectionConfig {
			return RandomDirectionConfig{
				Area:     Rect{Width: side, Height: side * (0.5 + rng.Float64())},
				Start:    Point{X: rng.Float64() * side, Y: rng.Float64() * side},
				MinSpeed: 1 + rng.Float64()*5,
				MaxSpeed: 6 + rng.Float64()*30,
				MinLeg:   time.Duration(1+rng.Intn(3)) * time.Second,
				MaxLeg:   time.Duration(4+rng.Intn(30)) * time.Second,
			}
		}
		cfg := cfgFor()
		seed := rng.Int63()
		cfg.RNG = rand.New(rand.NewSource(seed))
		w := NewRandomDirection(cfg)
		cfg.RNG = rand.New(rand.NewSource(seed))
		ref := newRefWalker(cfg)

		check := func(at time.Duration) {
			t.Helper()
			got, want := w.PositionAt(at), ref.PositionAt(at)
			if !same(got, want) {
				t.Fatalf("iter %d: PositionAt(%v) = %v, reference %v", iter, at, got, want)
			}
		}
		now := time.Duration(0)
		for q := 0; q < 400; q++ {
			switch rng.Intn(6) {
			case 0, 1: // monotone step, often shorter than a leg
				now += time.Duration(rng.Int63n(int64(3 * time.Second)))
				check(now)
			case 2: // repeated timestamp
				check(now)
				check(now)
			case 3: // backwards jump
				check(time.Duration(rng.Int63n(int64(now) + 1)))
			case 4: // exact leg boundaries around a random leg
				i := rng.Intn(len(w.legs))
				check(w.legs[i].start)
				check(w.legs[i].end())
				check(w.legs[i].end() + 1)
			case 5: // before the walk began
				check(-time.Duration(rng.Int63n(int64(time.Second))) - 1)
			}
		}
		for i := 1; i < len(w.legs); i++ {
			if w.legs[i].duration == 0 {
				zeroLegs++
			}
		}
	}
	if zeroLegs == 0 {
		t.Fatal("no walker produced a zero-length leg; the wall case is untested")
	}
}
