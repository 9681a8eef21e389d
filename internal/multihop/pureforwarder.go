// Package multihop implements the Section-V nodes that extend DAPES across
// multiple wireless hops without running the application: "pure forwarders"
// that only understand NDN network-layer semantics. They cache overheard
// Data in their Content Store, answer Interests from cache, forward
// Interests probabilistically after a random delay, and keep suppression
// timers for Interests that brought no Data back.
//
// DAPES-aware intermediates (Section V-B) are ordinary core.Peer instances
// with Multihop enabled; this package covers the NDN-only nodes.
package multihop

import (
	"time"

	"dapes/internal/geo"
	"dapes/internal/ndn"
	"dapes/internal/nfd"
	"dapes/internal/phy"
	"dapes/internal/sim"
)

// Config parameterizes a pure forwarder.
type Config struct {
	// ForwardProb is the probability of forwarding an Interest that misses
	// the Content Store (paper default 20%).
	ForwardProb float64
	// TransmissionWindow is the random forwarding delay bound.
	TransmissionWindow time.Duration
	// SuppressTTL is the per-name suppression timer armed when a forwarded
	// Interest brings no response.
	SuppressTTL time.Duration
	// CsCapacity bounds the Content Store.
	CsCapacity int
}

func (c Config) withDefaults() Config {
	if c.ForwardProb == 0 {
		c.ForwardProb = 0.2
	}
	if c.TransmissionWindow == 0 {
		c.TransmissionWindow = 20 * time.Millisecond
	}
	if c.SuppressTTL == 0 {
		c.SuppressTTL = 2 * time.Second
	}
	if c.CsCapacity == 0 {
		c.CsCapacity = 4096
	}
	return c
}

// Stats counts forwarder activity.
type Stats struct {
	InterestsHeard      uint64
	InterestsForwarded  uint64
	InterestsSuppressed uint64
	CsReplies           uint64
	DataForwarded       uint64
	ForwardedAnswered   uint64
}

// PureForwarder is an NDN-only node on the broadcast medium.
type PureForwarder struct {
	id     int
	k      *sim.Kernel
	medium *phy.Medium
	radio  *phy.Radio
	cfg    Config
	cs     *nfd.ContentStore
	stats  Stats

	// Name-keyed maps are keyed by ndn.Name.AppendKey, which keeps names
	// that share a URI form apart; lookups encode into keyBuf (nameKey).
	nonces         nfd.NonceTable
	forwarded      map[string]*forwardRecord
	suppressed     map[string]time.Duration
	pendingReplies map[string]*replyTimer
	keyBuf         []byte
	replyPool      []*replyTimer
	running        bool
	sweepT         *sim.Timer
}

// replyTimer is one cached-Data reply awaiting its transmission slot.
// Records (and their kernel timers) are pooled: response suppression
// cancels replies constantly on a dense medium.
type replyTimer struct {
	f   *PureForwarder
	t   *sim.Timer
	key string
	d   *ndn.Data
}

func (rt *replyTimer) fire() {
	f := rt.f
	d := rt.d
	delete(f.pendingReplies, rt.key)
	rt.key, rt.d = "", nil
	f.replyPool = append(f.replyPool, rt)
	if !f.running {
		return
	}
	f.stats.CsReplies++
	f.medium.Broadcast(f.radio, d.Encode())
}

// releaseReply cancels a pending reply and recycles its record.
func (f *PureForwarder) releaseReply(rt *replyTimer) {
	rt.t.Stop()
	delete(f.pendingReplies, rt.key)
	rt.key, rt.d = "", nil
	f.replyPool = append(f.replyPool, rt)
}

type forwardRecord struct {
	name        ndn.Name
	key         string // name.AppendKey: the record's forwarded and suppressed key
	canBePrefix bool
	at          time.Duration
	answered    bool
	relayed     map[string]bool // keys of data names already relayed (prefix interests)
}

// nameKey encodes name into the forwarder's scratch buffer. Indexing a map
// with m[string(f.nameKey(name))] does not allocate; the bytes are valid
// until the next call.
func (f *PureForwarder) nameKey(name ndn.Name) []byte {
	f.keyBuf = name.AppendKey(f.keyBuf[:0])
	return f.keyBuf
}

// NewPureForwarder attaches a pure forwarder to the medium.
func NewPureForwarder(k *sim.Kernel, medium *phy.Medium, mobility geo.Mobility, cfg Config) *PureForwarder {
	f := &PureForwarder{
		k:              k,
		medium:         medium,
		cfg:            cfg.withDefaults(),
		forwarded:      make(map[string]*forwardRecord),
		suppressed:     make(map[string]time.Duration),
		pendingReplies: make(map[string]*replyTimer),
	}
	f.sweepT = k.NewTimer(f.sweep)
	// The store shares the kernel clock so NDN freshness works here too: a
	// MustBeFresh Interest is never answered from a cache entry whose
	// FreshnessPeriod has lapsed (DAPES traffic never sets MustBeFresh, so
	// simulation traces are unchanged — this matters for NDN-correct
	// behavior when pure forwarders carry third-party traffic).
	f.cs = nfd.NewContentStoreWithClock(f.cfg.CsCapacity, nfd.KernelClock{K: k})
	f.radio = medium.Attach(mobility)
	f.id = f.radio.ID()
	f.radio.SetHandler(f.onFrame)
	return f
}

// ID returns the node's radio ID.
func (f *PureForwarder) ID() int { return f.id }

// Stats returns a copy of the counters.
func (f *PureForwarder) Stats() Stats { return f.stats }

// CsLen returns the number of cached packets.
func (f *PureForwarder) CsLen() int { return f.cs.Len() }

// NonceCount returns the number of Interest nonces the forwarder remembers
// for duplicate suppression.
func (f *PureForwarder) NonceCount() int { return f.nonces.Len() }

// Start activates the node.
func (f *PureForwarder) Start() {
	if f.running {
		return
	}
	f.running = true
	f.sweepT.Reset(f.cfg.SuppressTTL)
}

// Stop deactivates the node.
func (f *PureForwarder) Stop() {
	f.running = false
	f.sweepT.Stop()
}

func (f *PureForwarder) sweep() {
	if !f.running {
		return
	}
	now := f.k.Now()
	for n, until := range f.suppressed {
		if now > until {
			delete(f.suppressed, n)
		}
	}
	for n, rec := range f.forwarded {
		if now-rec.at > 2*f.cfg.SuppressTTL {
			delete(f.forwarded, n)
		}
	}
	f.nonces.Sweep(now)
	f.sweepT.Reset(f.cfg.SuppressTTL)
}

// onFrame dispatches through the frame's decode-once packet view, sharing
// one parse with every other receiver of the broadcast (phy.Frame wire-path
// contract: the decoded packet is read-only).
func (f *PureForwarder) onFrame(fr phy.Frame) {
	if !f.running {
		return
	}
	pkt := fr.Packet()
	if in := pkt.Interest(); in != nil {
		f.onInterest(in)
	} else if d := pkt.Data(); d != nil {
		f.onData(d)
	}
}

func (f *PureForwarder) onInterest(in *ndn.Interest) {
	if f.nonces.Duplicate(in.Nonce, f.k.Now()) {
		return
	}
	f.stats.InterestsHeard++

	// Satisfy from cache: overheard transmissions serve future requests.
	if cached := f.cs.Find(in); cached != nil {
		f.scheduleReply(cached)
		return
	}

	key := f.nameKey(in.Name)
	if until, ok := f.suppressed[string(key)]; ok && f.k.Now() < until {
		f.stats.InterestsSuppressed++
		return
	}
	if rec, ok := f.forwarded[string(key)]; ok && !rec.answered && f.k.Now()-rec.at < f.cfg.SuppressTTL {
		return // already in flight
	}
	if f.k.RNG().Float64() >= f.cfg.ForwardProb {
		f.stats.InterestsSuppressed++
		return
	}
	rec := &forwardRecord{
		name:        in.Name.Clone(),
		key:         string(key),
		canBePrefix: in.CanBePrefix,
		at:          f.k.Now(),
		relayed:     make(map[string]bool, 1),
	}
	f.forwarded[rec.key] = rec
	// Encode-once: a received Interest relays its original frame bytes.
	wire := in.Encode()
	f.k.ScheduleFunc(f.k.Jitter(f.cfg.TransmissionWindow), func() {
		if !f.running {
			return
		}
		f.stats.InterestsForwarded++
		f.medium.Broadcast(f.radio, wire)
	})
	f.k.ScheduleFunc(f.cfg.SuppressTTL, func() {
		if !rec.answered {
			f.suppressed[rec.key] = f.k.Now() + f.cfg.SuppressTTL
		}
	})
}

// scheduleReply answers from the Content Store after a random delay,
// canceling if another node replies first. The CS holds each packet's
// original wire (encode-once), so the reply re-emits the cached frame
// without a re-encode.
func (f *PureForwarder) scheduleReply(d *ndn.Data) {
	key := f.nameKey(d.Name)
	if _, pending := f.pendingReplies[string(key)]; pending {
		return
	}
	var rt *replyTimer
	if n := len(f.replyPool); n > 0 {
		rt = f.replyPool[n-1]
		f.replyPool[n-1] = nil
		f.replyPool = f.replyPool[:n-1]
	} else {
		rt = &replyTimer{f: f}
		rt.t = f.k.NewTimer(rt.fire)
	}
	rt.key, rt.d = string(key), d
	f.pendingReplies[rt.key] = rt
	rt.t.Reset(f.k.Jitter(f.cfg.TransmissionWindow))
}

func (f *PureForwarder) onData(d *ndn.Data) {
	// Response suppression: someone else answered.
	if rt, ok := f.pendingReplies[string(f.nameKey(d.Name))]; ok {
		f.releaseReply(rt)
	}
	// Cache every overheard transmission (Section V-A).
	f.cs.Insert(d)

	rec := f.matchForwarded(d.Name)
	if rec == nil {
		return
	}
	key := f.nameKey(d.Name)
	if rec.relayed[string(key)] {
		return
	}
	rec.relayed[string(key)] = true
	if !rec.answered {
		rec.answered = true
		f.stats.ForwardedAnswered++
	}
	delete(f.suppressed, rec.key)
	// Encode-once: relay the Data frame exactly as it was received.
	wire := d.Encode()
	f.k.ScheduleFunc(f.k.Jitter(f.cfg.TransmissionWindow), func() {
		if !f.running {
			return
		}
		f.stats.DataForwarded++
		f.medium.Broadcast(f.radio, wire)
	})
}

// matchForwarded finds a forwarded-Interest record the Data satisfies:
// exact name, or prefix match for CanBePrefix Interests (e.g. discovery and
// bitmap signaling whose replies extend the request name).
func (f *PureForwarder) matchForwarded(name ndn.Name) *forwardRecord {
	if rec, ok := f.forwarded[string(f.nameKey(name))]; ok {
		return rec
	}
	for _, rec := range f.forwarded {
		if rec.canBePrefix && rec.name.IsPrefixOf(name) {
			return rec
		}
	}
	return nil
}
