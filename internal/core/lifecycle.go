package core

import (
	"time"

	"dapes/internal/bitmap"
	"dapes/internal/sim"
)

// This file is the crash/restart lifecycle the fault engine
// (internal/fault) drives: Crash models a node losing power mid-run,
// Restart a cold reboot that keeps only what would survive on disk. Both
// are ordinary kernel events — everything they do is a pure function of
// the virtual time they fire at, so a fault schedule replays identically
// across reruns and shard counts.

// Kernel returns the event kernel driving this peer (its home shard's
// kernel in a partitioned world). Fault schedules install crash and
// restart events through it so each event fires on the goroutine that
// owns the peer.
func (p *Peer) Kernel() *sim.Kernel { return p.k }

// Crash hard-stops the peer mid-run: every timer is cancelled (Stop),
// already-queued one-shot sends become no-ops, and the radio goes deaf so
// receptions in flight are dropped at the medium. State is left in place;
// Restart decides what survives the outage.
func (p *Peer) Crash() {
	p.Stop()
	p.radio.SetEnabled(false)
}

// Restart cold-boots a crashed peer: neighbor, PIT, and dedup tables are
// wiped, downloads in progress (and completed downloads — the content
// store is volatile, and each one forgotten fires the SetOnForget
// callback) are forgotten, and discovery starts over. Two things
// survive, modeling durable storage and application intent: locally
// published collections keep their packets (their advertisement state
// still restarts cold), and subscription prefixes stay registered, so the
// peer re-discovers and re-fetches what it still wants.
func (p *Peer) Restart() {
	if p.running {
		return
	}
	p.neighbors = make(map[int]*neighbor)
	p.nonces.Reset()
	p.forwarded = make(map[string]*forwardRecord)
	p.suppressed = make(map[string]time.Duration)
	p.recentActivity = false
	p.lastReplyAt = 0
	p.beaconPeriod = p.cfg.BeaconPeriodMin
	for key, cs := range p.collections {
		if cs.done && !cs.subscribed {
			// Locally published collection: packets persist, the
			// per-encounter advertisement state does not.
			cs.avail = make(map[int]*bitmap.Bitmap)
			cs.session = advertSession{}
			continue
		}
		delete(p.collections, key)
		if cs.done && p.onForget != nil {
			p.onForget(cs.collection)
		}
	}
	p.radio.SetEnabled(true)
	p.Start()
}
