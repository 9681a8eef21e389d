package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"dapes/internal/bitmap"
	"dapes/internal/geo"
	"dapes/internal/keys"
	"dapes/internal/metadata"
	"dapes/internal/ndn"
	"dapes/internal/nfd"
	"dapes/internal/peba"
	"dapes/internal/phy"
	"dapes/internal/rpf"
	"dapes/internal/sim"
)

// forwardRecord tracks one forwarded Interest awaiting Data (Section V).
type forwardRecord struct {
	at       time.Duration
	answered bool
}

// Peer is one DAPES node: producer, downloader, repository, or intermediate.
// A Peer is driven entirely by the simulation kernel; it is not safe for
// concurrent use from multiple goroutines.
type Peer struct {
	id     int
	k      *sim.Kernel
	medium *phy.Medium
	radio  *phy.Radio
	key    *keys.Key
	trust  *keys.TrustStore
	cfg    Config
	stats  Stats

	// Name-keyed maps are keyed by ndn.Name.AppendKey, which keeps names
	// that share a URI form apart; lookups encode into keyBuf (nameKey).
	collections map[string]*collectionState
	wanted      [][]byte // the AppendKey of each subscription prefix
	neighbors   map[int]*neighbor
	keyBuf      []byte
	// advert is the scratch every received bitmap payload is decoded into.
	advert advert
	// idParams is this peer's discovery-beacon AppParams (its ID), and
	// replyPrefix its discovery-reply name prefix (discoveryReplyPrefix).
	idParams    []byte
	replyPrefix ndn.Name
	// offerBuf is maybeSendDiscoveryReply's scratch offer list.
	offerBuf []ndn.Name

	beaconPeriod   time.Duration
	beaconT        *sim.Timer
	sweepT         *sim.Timer
	recentActivity bool
	lastReplyAt    time.Duration
	replySeq       int
	bitmapReqSeq   int

	nonces         nfd.NonceTable
	pendingReplies map[string]*replyTimer
	forwarded      map[string]*forwardRecord
	suppressed     map[string]time.Duration

	// Pools of reusable timer records for the cancel-heavy per-packet
	// paths: response-suppressed replies and in-flight Interest timeouts.
	// Each record owns one kernel timer and one closure for its lifetime.
	replyPool    []*replyTimer
	inflightPool []*inflightTimer

	running    bool
	onComplete func(collection ndn.Name, at time.Duration)
	onForget   func(collection ndn.Name)
}

// NewPeer attaches a peer to the medium with the given mobility. key may be
// nil (packets use digest integrity only); trust may be nil (metadata
// signature checks are skipped), matching the simulation configurations.
func NewPeer(k *sim.Kernel, medium *phy.Medium, mobility geo.Mobility, key *keys.Key, trust *keys.TrustStore, cfg Config) *Peer {
	p := &Peer{
		k:              k,
		medium:         medium,
		key:            key,
		trust:          trust,
		cfg:            cfg.withDefaults(),
		collections:    make(map[string]*collectionState),
		neighbors:      make(map[int]*neighbor),
		pendingReplies: make(map[string]*replyTimer),
		forwarded:      make(map[string]*forwardRecord),
		suppressed:     make(map[string]time.Duration),
	}
	p.beaconT = k.NewTimer(p.beaconTick)
	p.sweepT = k.NewTimer(p.sweepTick)
	p.radio = medium.Attach(mobility)
	p.id = p.radio.ID()
	p.idParams = binary.BigEndian.AppendUint32(nil, uint32(p.id))
	p.replyPrefix = discoveryReplyPrefix(p.id)
	p.beaconPeriod = p.cfg.BeaconPeriodMin
	p.radio.SetHandler(p.onFrame)
	return p
}

// ID returns the peer's network-wide identifier (its radio ID).
func (p *Peer) ID() int { return p.id }

// Stats returns a copy of the peer's protocol counters.
func (p *Peer) Stats() Stats { return p.stats }

// Config returns the peer's effective configuration.
func (p *Peer) Config() Config { return p.cfg }

// SetOnComplete installs a callback invoked when a subscribed collection
// finishes downloading.
func (p *Peer) SetOnComplete(fn func(collection ndn.Name, at time.Duration)) {
	p.onComplete = fn
}

// SetOnForget installs a callback invoked when Restart forgets a completed
// download: the inverse of the onComplete event, so a holder of both can
// track which peers currently hold a collection.
func (p *Peer) SetOnForget(fn func(collection ndn.Name)) {
	p.onForget = fn
}

// nameKey encodes name into the peer's scratch buffer. Indexing a map
// with m[string(p.nameKey(name))] does not allocate; the bytes are valid
// until the next call.
func (p *Peer) nameKey(name ndn.Name) []byte {
	p.keyBuf = name.AppendKey(p.keyBuf[:0])
	return p.keyBuf
}

// Start begins discovery beaconing and housekeeping.
func (p *Peer) Start() {
	if p.running {
		return
	}
	p.running = true
	p.beaconT.Reset(p.k.Jitter(p.beaconPeriod))
	p.sweepT.Reset(p.cfg.NeighborTTL / 2)
}

// Stop halts the peer: beaconing, housekeeping, pending replies, metadata
// retries, advertisement transmissions, and in-flight Interest timeouts are
// all cancelled, so a stopped peer leaves nothing armed in the kernel and
// Kernel.Pending drains (already-queued one-shot sends no-op on !running
// and fire at most once). Stop is idempotent and Start reverses it.
func (p *Peer) Stop() {
	p.running = false
	p.beaconT.Stop()
	p.sweepT.Stop()
	//lint:ignore maporder timer cancellation and free-list refill only; recycled records are reset before reuse, so pool order never reaches the trace
	for _, rt := range p.pendingReplies {
		rt.t.Stop()
		rt.key, rt.d, rt.counter = "", nil, nil
		p.replyPool = append(p.replyPool, rt)
	}
	p.pendingReplies = make(map[string]*replyTimer)
	//lint:ignore maporder timer cancellation and free-list refill only; recycled records are reset before reuse, so pool order never reaches the trace
	for _, cs := range p.collections {
		if cs.metaT != nil {
			cs.metaT.Stop()
		}
		if cs.txT != nil {
			cs.txT.Stop()
		}
		//lint:ignore maporder timer cancellation and free-list refill only; recycled records are reset before reuse, so pool order never reaches the trace
		for _, it := range cs.inflight {
			it.t.Stop()
			it.cs = nil
			p.inflightPool = append(p.inflightPool, it)
		}
		cs.inflight = make(map[int]*inflightTimer)
		cs.fetching = false
	}
}

// Subscribe declares interest in any collection whose name matches prefix.
func (p *Peer) Subscribe(prefix ndn.Name) {
	p.wanted = append(p.wanted, prefix.AppendKey(nil))
}

// Publish installs a locally produced collection: the peer holds every
// packet, serves metadata, and advertises full bitmaps.
func (p *Peer) Publish(res *metadata.BuildResult) error {
	m := res.Manifest
	segs, err := m.Segment(p.cfg.MetaSegmentSize, p.signer())
	if err != nil {
		return fmt.Errorf("core: publish %s: %w", m.Collection, err)
	}
	cs := newCollectionState(m.Collection)
	cs.metaName = m.MetadataName()
	cs.manifest = m
	cs.metaTotal = len(segs)
	for i, s := range segs {
		cs.metaSegs[i] = s
	}
	p.initManifest(cs)
	for i, pkt := range res.Packets {
		cs.packets[i] = pkt
		cs.own.Set(i)
	}
	cs.done = true
	p.collections[cs.key] = cs
	return nil
}

// signer returns the peer's key as an ndn.Signer, or nil.
func (p *Peer) signer() ndn.Signer {
	if p.key == nil {
		return nil
	}
	return p.key
}

// Progress reports verified packets over total for a collection (0, 0 when
// the collection or its metadata is unknown).
func (p *Peer) Progress(collection ndn.Name) (have, total int) {
	cs, ok := p.collections[string(p.nameKey(collection))]
	if !ok {
		return 0, 0
	}
	return cs.progress()
}

// Done reports whether a subscribed collection has fully downloaded, and when.
func (p *Peer) Done(collection ndn.Name) (bool, time.Duration) {
	cs, ok := p.collections[string(p.nameKey(collection))]
	if !ok {
		return false, 0
	}
	return cs.done, cs.doneAt
}

// HasPacket reports whether the peer holds the packet at a collection's
// global index.
func (p *Peer) HasPacket(collection ndn.Name, idx int) bool {
	cs, ok := p.collections[string(p.nameKey(collection))]
	return ok && cs.own != nil && cs.own.Test(idx)
}

// NeighborCount returns the number of live neighbors.
func (p *Peer) NeighborCount() int { return len(p.neighbors) }

// NonceCount returns the number of Interest nonces the peer remembers for
// duplicate suppression.
func (p *Peer) NonceCount() int { return p.nonces.Len() }

// ForwardingAccuracy returns the fraction of forwarded Interests that
// brought Data back — the paper reports 83% for DAPES (Section VI-D).
func (p *Peer) ForwardingAccuracy() float64 {
	if p.stats.InterestsForwarded == 0 {
		return 0
	}
	return float64(p.stats.ForwardedAnswered) / float64(p.stats.InterestsForwarded)
}

// MemoryFootprint estimates the bytes of protocol state the peer maintains:
// neighbor tables, availability bitmaps, forwarding records, and suppression
// timers. Table I's "system load" discussion attributes load growth to
// exactly this state.
func (p *Peer) MemoryFootprint() int {
	total := 0
	for _, n := range p.neighbors {
		total += 32 + len(n.offers)*64
	}
	for _, cs := range p.collections {
		if cs.own != nil {
			total += cs.own.Len() / 8
		}
		for _, bm := range cs.avail {
			total += bm.Len() / 8
		}
	}
	total += len(p.forwarded)*48 + len(p.suppressed)*40 + p.nonces.Len()*12
	return total
}

// --- Beaconing & discovery (Section IV-B) ---

// beaconTick broadcasts a discovery Interest and adapts the period: halve
// toward the minimum after recent encounters, double toward the maximum in
// isolation.
func (p *Peer) beaconTick() {
	if !p.running {
		return
	}
	p.sendDiscoveryInterest()
	recent := p.recentActivity
	now := p.k.Now()
	for _, n := range p.neighbors {
		if now-n.lastHeard <= p.cfg.BeaconPeriodMax {
			recent = true
			break
		}
	}
	if recent {
		p.beaconPeriod /= 2
		if p.beaconPeriod < p.cfg.BeaconPeriodMin {
			p.beaconPeriod = p.cfg.BeaconPeriodMin
		}
	} else {
		p.beaconPeriod *= 2
		if p.beaconPeriod > p.cfg.BeaconPeriodMax {
			p.beaconPeriod = p.cfg.BeaconPeriodMax
		}
	}
	p.recentActivity = false
	p.beaconT.Reset(p.beaconPeriod + p.k.Jitter(p.cfg.TransmissionWindow))
}

func (p *Peer) sendDiscoveryInterest() {
	in := &ndn.Interest{
		Name:        discoveryInterestName(),
		CanBePrefix: true,
		Nonce:       p.newNonce(),
		AppParams:   p.idParams,
	}
	p.stats.DiscoveryInterestsSent++
	p.medium.Broadcast(p.radio, in.Encode())
}

// sweepTick expires stale neighbors and prunes bookkeeping maps.
func (p *Peer) sweepTick() {
	if !p.running {
		return
	}
	now := p.k.Now()
	for id, n := range p.neighbors {
		if now-n.lastHeard > p.cfg.NeighborTTL {
			delete(p.neighbors, id)
			for _, cs := range p.collections {
				delete(cs.avail, id)
				if cs.strategy != nil {
					cs.strategy.Disconnect(id)
				}
			}
		}
	}
	p.nonces.Sweep(now)
	for name, until := range p.suppressed {
		if now > until {
			delete(p.suppressed, name)
		}
	}
	for name, rec := range p.forwarded {
		if now-rec.at > 2*p.cfg.SuppressTTL {
			delete(p.forwarded, name)
		}
	}
	p.sweepT.Reset(p.cfg.NeighborTTL / 2)
}

// neighborHeard refreshes (or creates) neighbor state, returning it.
func (p *Peer) neighborHeard(id int) *neighbor {
	if id == p.id {
		return nil
	}
	n, ok := p.neighbors[id]
	if !ok {
		n = &neighbor{id: id, offers: make(map[string]struct{})}
		p.neighbors[id] = n
		p.recentActivity = true
	}
	n.lastHeard = p.k.Now()
	return n
}

func (p *Peer) newNonce() uint32 {
	n := uint32(p.k.RNG().Int63())
	p.nonces.Record(n, p.k.Now())
	return n
}

// --- Frame dispatch ---

// onFrame dispatches a received frame through its decode-once packet view:
// when several peers hear the same broadcast, the first handler parses and
// the rest reuse that parse (the Interest/Data objects are shared and
// treated as read-only — see the phy.Frame wire-path contract). Malformed
// frames drop, as before.
func (p *Peer) onFrame(f phy.Frame) {
	if !p.running {
		return
	}
	pkt := f.Packet()
	if in := pkt.Interest(); in != nil {
		p.handleInterest(f.From, in)
	} else if d := pkt.Data(); d != nil {
		p.handleData(f.From, d)
	}
}

func (p *Peer) handleInterest(from int, in *ndn.Interest) {
	if p.nonces.Duplicate(in.Nonce, p.k.Now()) {
		return // duplicate or loop
	}

	if sender, ok := isDiscoveryInterest(in); ok {
		p.neighborHeard(sender)
		p.maybeSendDiscoveryReply()
		return
	}
	if isBitmapInterest(in.Name) {
		p.handleBitmapInterest(in)
		return
	}
	if isProtocolName(in.Name) {
		return
	}
	p.handleContentInterest(from, in)
}

func (p *Peer) handleData(from int, d *ndn.Data) {
	p.neighborHeard(from)

	// Response suppression: someone answered; cancel our pending reply and
	// recycle its timer record.
	if rt, ok := p.pendingReplies[string(p.nameKey(d.Name))]; ok {
		p.releaseReply(rt)
	}

	if responder, ok := isDiscoveryReply(d.Name); ok {
		p.handleDiscoveryReply(responder, d)
		return
	}
	if isBitmapData(d.Name) {
		p.handleBitmapData(d)
		return
	}
	if isProtocolName(d.Name) {
		return
	}
	p.handleContentData(from, d)
}

// --- Discovery replies ---

// maybeSendDiscoveryReply answers a discovery Interest with the metadata
// names this peer can offer, rate-limited to one reply per beacon minimum.
// The rate limit is checked first, so a limited reply builds nothing.
func (p *Peer) maybeSendDiscoveryReply() {
	now := p.k.Now()
	if now-p.lastReplyAt < p.cfg.BeaconPeriodMin/2 && p.lastReplyAt != 0 {
		return
	}
	offers := p.offerBuf[:0]
	for _, cs := range p.collections {
		if cs.manifest != nil {
			offers = append(offers, cs.metaName)
		}
	}
	p.offerBuf = offers
	if len(offers) == 0 {
		return
	}
	// The offer list is encoded into the reply payload: sort it so the wire
	// bytes don't inherit map-iteration order when a peer publishes more
	// than one collection.
	slices.SortFunc(offers, ndn.Name.Compare)
	p.lastReplyAt = now
	p.replySeq++
	d := &ndn.Data{
		Name:    p.replyPrefix.AppendSeq(p.replySeq),
		Content: discoveryPayload{MetadataNames: offers}.encode(),
	}
	d.SignDigest()
	wire := d.Encode()
	p.k.ScheduleFunc(p.k.Jitter(p.cfg.TransmissionWindow), func() {
		if !p.running {
			return
		}
		p.stats.DiscoveryDataSent++
		p.medium.Broadcast(p.radio, wire)
	})
}

// handleDiscoveryReply learns which collections a neighbor offers and kicks
// off metadata retrieval for subscribed collections (step 2 of Fig. 3).
func (p *Peer) handleDiscoveryReply(responder int, d *ndn.Data) {
	n := p.neighborHeard(responder)
	if n == nil {
		return
	}
	offers, err := readOffers(d.Content)
	if err != nil {
		return
	}
	for metaURI, more := offers.next(); more; metaURI, more = offers.next() {
		// Metadata names end with /metadata-file/<version>; the collection
		// is the prefix before those two components.
		collURI, ok := offeredCollection(metaURI)
		if !ok {
			continue
		}
		p.keyBuf = ndn.AppendURIKey(p.keyBuf[:0], collURI)
		key := p.keyBuf
		// Look up first: an insert copies the key into a new string.
		if _, known := n.offers[string(key)]; !known {
			n.offers[string(key)] = struct{}{}
		}

		if !p.wants(key) {
			continue
		}
		cs, ok := p.collections[string(key)]
		if !ok {
			metaName := ndn.ParseName(string(metaURI))
			cs = newCollectionState(metaName[:len(metaName)-2])
			cs.metaName = metaName
			cs.subscribed = true
			cs.startedAt = p.k.Now()
			p.collections[cs.key] = cs
		}
		cs.subscribed = true
		if cs.metaName == nil {
			cs.metaName = ndn.ParseName(string(metaURI))
		}
		if cs.manifest == nil {
			p.requestNextMetaSegment(cs)
		} else {
			// Metadata known: (re)start the advertisement exchange.
			p.sendBitmapInterest(cs)
		}
	}
}

// wants reports whether the collection whose key (ndn.Name.AppendKey) is
// key matches any subscription prefix. A name is a prefix of another
// exactly when its key is a byte prefix of the other's: each component's
// encoding starts with its length.
func (p *Peer) wants(key []byte) bool {
	for _, w := range p.wanted {
		if bytes.HasPrefix(key, w) {
			return true
		}
	}
	return false
}

// --- Metadata retrieval (Section IV-C) ---

// requestNextMetaSegment fetches the lowest missing metadata segment, with
// timeout-driven retries while the collection remains wanted. The retry
// timer is created once per collection and re-armed across the whole
// segment sequence.
func (p *Peer) requestNextMetaSegment(cs *collectionState) {
	if !p.running || cs.manifest != nil || cs.metaName == nil || (cs.metaT != nil && cs.metaT.Pending()) {
		return
	}
	seq := 0
	for {
		if _, have := cs.metaSegs[seq]; !have {
			break
		}
		seq++
	}
	if cs.metaTotal >= 0 && seq >= cs.metaTotal {
		return
	}
	in := &ndn.Interest{Name: cs.metaName.AppendSeq(seq), Nonce: p.newNonce()}
	wire := in.Encode()
	p.k.ScheduleFunc(p.k.Jitter(p.cfg.TransmissionWindow), func() {
		if !p.running || cs.manifest != nil {
			return
		}
		p.stats.MetaInterestsSent++
		p.medium.Broadcast(p.radio, wire)
	})
	if cs.metaT == nil {
		cs.metaT = p.k.NewTimer(func() { p.requestNextMetaSegment(cs) })
	}
	cs.metaT.Reset(p.cfg.InterestTimeout + p.cfg.TransmissionWindow)
}

// storeMetaSegment records a received metadata segment and assembles the
// manifest once complete.
func (p *Peer) storeMetaSegment(cs *collectionState, seq int, d *ndn.Data) {
	if cs.manifest != nil {
		return
	}
	if _, dup := cs.metaSegs[seq]; dup {
		return
	}
	total, err := metadata.SegmentCount(d)
	if err != nil {
		return
	}
	cs.metaSegs[seq] = d
	cs.metaTotal = total
	if cs.metaT != nil {
		cs.metaT.Stop()
	}
	if len(cs.metaSegs) < total {
		p.requestNextMetaSegment(cs)
		return
	}
	segs := make([]*ndn.Data, 0, total)
	for i := 0; i < total; i++ {
		seg, ok := cs.metaSegs[i]
		if !ok {
			p.requestNextMetaSegment(cs)
			return
		}
		segs = append(segs, seg)
	}
	var verify func(key ndn.Name, msg, sig []byte) bool
	if p.trust != nil {
		verify = p.trust.Verify
	}
	m, err := metadata.Assemble(segs, verify)
	if err != nil {
		// Authentication failure: discard and refetch from scratch (a
		// different neighbor may offer authentic metadata).
		p.stats.VerifyFailures++
		cs.metaSegs = make(map[int]*ndn.Data)
		cs.metaTotal = -1
		return
	}
	cs.manifest = m
	p.initManifest(cs)
	// Step 3 of Fig. 3: advertise and solicit bitmaps.
	p.sendBitmapInterest(cs)
}

// initManifest sizes the bitmap and instantiates the RPF strategy.
func (p *Peer) initManifest(cs *collectionState) {
	n := cs.manifest.TotalPackets()
	cs.own = bitmap.New(n)
	switch p.cfg.Strategy {
	case EncounterBasedRPF:
		cs.strategy = rpf.NewEncounterBased(n, p.cfg.EncounterHistory, p.cfg.RandomStart, p.k.RNG())
	default:
		cs.strategy = rpf.NewLocalNeighborhood(n, p.cfg.RandomStart, p.k.RNG())
	}
}

// newBackoff builds the per-encounter PEBA state.
func (p *Peer) newBackoff() *peba.Backoff {
	return peba.New(p.cfg.Peba, p.k.RNG())
}
