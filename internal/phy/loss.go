package phy

import (
	"math/rand"
	"time"

	"dapes/internal/geo"
)

// This file is the pluggable frame-loss layer: a LossModel replaces the
// medium's built-in i.i.d. coin flip for receptions that survived the
// collision check, and a Jammer blacks out a disk of the arena for an
// interval. Both hook into Medium.complete at exactly the point the i.i.d.
// reference draws, so an installed model that reproduces the reference's
// kernel-RNG draws is byte-identical to it — the golden gate in
// internal/experiment pins that for GilbertElliott with pGood==pBad.

// LossModel decides whether one reception that already survived the
// collision check is dropped at the receiving radio. id is the radio's
// wire-visible identity (globally unique across a sharded composition);
// rng is the kernel's seeded stream. Implementations must draw from rng
// exactly when the decision is probabilistic for the receiver's current
// state — drawing on a sure outcome (p==0 or p==1) would shift every
// later draw in the trial and break trace equivalences. Any internal
// state evolution must come from the model's own seeded source, never
// from rng.
//
// In a sharded composition each member medium needs its own instance
// (receiver state is touched by the home shard's goroutine); instances
// built from the same seed produce the same per-receiver decisions
// regardless of how radios are partitioned, because state is keyed by the
// global radio identity.
type LossModel interface {
	Drop(id int, rng *rand.Rand) bool
}

// GEConfig parameterizes a Gilbert-Elliott channel: a two-state Markov
// chain per receiver with loss probability PGood in the good state and
// PBad in the bad state, stepping once per reception with transition
// probabilities GoodToBad / BadToGood.
type GEConfig struct {
	PGood     float64
	PBad      float64
	GoodToBad float64
	BadToGood float64
}

// GilbertElliott is the bursty per-receiver loss model. The chain steps
// from a dedicated per-receiver RNG derived from the model seed and the
// radio's global identity, so the kernel stream sees exactly one draw per
// reception (when the current state's loss probability is positive) —
// with PGood==PBad==LossRate that is the i.i.d. reference's draw pattern,
// making the two byte-identical.
type GilbertElliott struct {
	cfg  GEConfig
	seed int64
	// states is indexed by radio identity, which Medium.Attach hands out
	// densely from 0 (across a sharded composition too), and grows to the
	// highest identity seen.
	states []geState
}

// geState is one receiver's chain; rng is nil until its first reception.
type geState struct {
	bad bool
	rng *rand.Rand
}

// NewGilbertElliott builds a model instance; seed fixes every receiver's
// chain (state evolution is a pure function of (seed, radio identity,
// reception count)).
func NewGilbertElliott(cfg GEConfig, seed int64) *GilbertElliott {
	return &GilbertElliott{cfg: cfg, seed: seed}
}

// Drop steps the receiver's chain and then decides the loss with a single
// kernel draw when the state's loss probability is positive.
func (g *GilbertElliott) Drop(id int, rng *rand.Rand) bool {
	if id >= len(g.states) {
		g.states = append(g.states, make([]geState, id+1-len(g.states))...)
	}
	st := &g.states[id]
	if st.rng == nil {
		st.rng = rand.New(rand.NewSource(g.seed + int64(id)*1_000_003 + 1))
	}
	if st.bad {
		if g.cfg.BadToGood > 0 && st.rng.Float64() < g.cfg.BadToGood {
			st.bad = false
		}
	} else {
		if g.cfg.GoodToBad > 0 && st.rng.Float64() < g.cfg.GoodToBad {
			st.bad = true
		}
	}
	p := g.cfg.PGood
	if st.bad {
		p = g.cfg.PBad
	}
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return rng.Float64() < p
}

// Jammer blacks out a disk of the arena for an interval: any reception
// completing inside the disk during [From, Until) is dropped (counted in
// Stats.Jammed). The check is a pure function of receiver position and
// virtual time — no RNG draw — so a jammer is trace-neutral outside its
// window and identical across worker and shard counts. The same (immutable)
// Jammer value may be shared by every member of a sharded composition.
type Jammer struct {
	Center geo.Point
	Radius float64
	From   time.Duration
	Until  time.Duration
}

// Blocks reports whether a reception at p completing at time at falls
// inside the jammed disk and window.
func (j *Jammer) Blocks(p geo.Point, at time.Duration) bool {
	return at >= j.From && at < j.Until && p.Distance(j.Center) <= j.Radius
}

// SetLossModel installs a loss model that replaces the built-in i.i.d.
// Config.LossRate draw for this medium's receivers. Install before the
// first broadcast; in a sharded composition install a fresh same-seed
// instance on every member (Medium(i)).
func (m *Medium) SetLossModel(l LossModel) { m.loss = l }

// SetJammer installs a regional jammer window checked before the loss
// draw. nil (the default) leaves the path untouched.
func (m *Medium) SetJammer(j *Jammer) { m.jam = j }
