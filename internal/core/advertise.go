package core

import (
	"dapes/internal/bitmap"
	"dapes/internal/ndn"
)

// This file implements the data-advertisement exchange of Sections IV-D and
// IV-F: bitmap Interests solicit advertisements, and bitmap Data
// transmissions are prioritized (most-useful-first) with PEBA collision
// mitigation.

// touchSession ensures the per-encounter session state is live, resetting it
// if the previous encounter expired.
func (p *Peer) touchSession(cs *collectionState) *advertSession {
	s := &cs.session
	now := p.k.Now()
	if s.active && now-s.lastActivity > p.cfg.SessionTTL {
		// Previous encounter ended: priority groups and heard-bitmap unions
		// are per encounter (Section IV-F).
		if cs.txT != nil {
			cs.txT.Stop()
		}
		*s = advertSession{}
	}
	if !s.active {
		s.active = true
		s.heardUnion = bitmap.New(cs.manifest.TotalPackets())
		s.backoff = p.newBackoff()
		s.lastActivity = now
	}
	return s
}

// sendBitmapInterest broadcasts a bitmap Interest for the collection,
// carrying this peer's own bitmap as the paper specifies (Section IV-D).
func (p *Peer) sendBitmapInterest(cs *collectionState) {
	if cs.manifest == nil {
		return
	}
	p.touchSession(cs)
	p.bitmapReqSeq++
	in := &ndn.Interest{
		Name:        cs.bitmapName,
		CanBePrefix: true,
		Nonce:       p.newNonce(),
		AppParams: bitmapPayload{
			Collection: cs.uri,
			Owner:      p.id,
			Bitmap:     cs.own,
		}.encode(),
	}
	wire := in.Encode()
	p.k.ScheduleFunc(p.k.Jitter(p.cfg.TransmissionWindow), func() {
		if !p.running {
			return
		}
		p.stats.BitmapInterestsSent++
		p.medium.Broadcast(p.radio, wire)
	})
}

// handleBitmapInterest processes a received bitmap Interest: the carried
// bitmap is an advertisement from the requester, and the request solicits
// this peer's own (prioritized) bitmap transmission.
func (p *Peer) handleBitmapInterest(in *ndn.Interest) {
	a := &p.advert
	if a.decode(in.AppParams) != nil {
		return
	}
	p.neighborHeard(a.owner)
	cs, ok := p.collections[string(a.key)]
	if !ok || cs.manifest == nil {
		// We can still use the overheard bitmap for forwarding decisions
		// about collections we do not hold (Section V-B).
		p.recordOverheardBitmap(a)
		return
	}
	p.observeAdvertisement(cs, a, false)
	s := p.touchSession(cs)
	if !s.transmitted && !cs.txPending() {
		p.scheduleBitmapTx(cs)
	}
}

// txPending reports whether an advertisement transmission is armed.
func (cs *collectionState) txPending() bool {
	return cs.txT != nil && cs.txT.Pending()
}

// handleBitmapData processes an advertisement transmission heard on air.
func (p *Peer) handleBitmapData(d *ndn.Data) {
	a := &p.advert
	if a.decode(d.Content) != nil {
		return
	}
	p.neighborHeard(a.owner)
	cs, ok := p.collections[string(a.key)]
	if !ok || cs.manifest == nil {
		p.recordOverheardBitmap(a)
		return
	}
	p.observeAdvertisement(cs, a, true)

	s := p.touchSession(cs)
	s.heardCount++
	if a.bitmap.Len() == s.heardUnion.Len() {
		_ = s.heardUnion.Or(a.bitmap)
	}
	s.lastActivity = p.k.Now()

	// Paper's Fig.-5 example: hearing a bitmap cancels the current pending
	// transmission and reschedules with the updated missing set.
	if cs.txPending() {
		cs.txT.Stop()
		p.scheduleBitmapTx(cs)
	}
	p.maybeStartFetch(cs)
}

// recordOverheadBitmap stores advertisements for collections this peer does
// not itself hold, enabling informed forwarding decisions (Section V-B:
// "intermediate peers interested in a different file collection").
func (p *Peer) recordOverheardBitmap(a *advert) {
	if !p.cfg.Multihop {
		return
	}
	cs, ok := p.collections[string(a.key)]
	if !ok {
		cs = newCollectionState(a.collection())
		p.collections[cs.key] = cs
	}
	cs.storeAvail(a.owner, a.bitmap)
}

// observeAdvertisement folds a peer's bitmap into availability and strategy
// state.
func (p *Peer) observeAdvertisement(cs *collectionState, a *advert, viaData bool) {
	if cs.manifest == nil || a.bitmap.Len() != cs.manifest.TotalPackets() {
		return
	}
	cs.storeAvail(a.owner, a.bitmap)
	if cs.strategy != nil {
		cs.strategy.Observe(a.owner, a.bitmap)
	}
	if !viaData {
		p.maybeStartFetch(cs)
	}
}

// priorityFraction computes the PEBA priority input: for the first bitmap of
// an encounter, the peer's share of all packets; afterwards, its share of
// the packets still missing from every previously transmitted bitmap.
func (p *Peer) priorityFraction(cs *collectionState) float64 {
	total := cs.manifest.TotalPackets()
	if total == 0 {
		return 0
	}
	s := &cs.session
	if s.heardCount == 0 {
		return float64(cs.own.Count()) / float64(total)
	}
	missing := total - s.heardUnion.Count()
	if missing <= 0 {
		return 0
	}
	mine, err := cs.own.MissingFrom(s.heardUnion)
	if err != nil {
		return 0
	}
	return float64(mine) / float64(missing)
}

// scheduleBitmapTx arms this peer's advertisement transmission using the
// prioritized delay (PEBA or the linear ablation). The timer is created
// once per collection: the exchange cancels and re-arms it on nearly every
// bitmap heard, which must not allocate.
func (p *Peer) scheduleBitmapTx(cs *collectionState) {
	s := &cs.session
	if s.transmitted || cs.txPending() {
		return
	}
	frac := p.priorityFraction(cs)
	delay := s.backoff.Delay(frac)
	if cs.txT == nil {
		cs.txT = p.k.NewTimer(func() { p.transmitBitmap(cs) })
	}
	cs.txT.Reset(delay)
}

// transmitBitmap broadcasts this peer's bitmap with collision feedback; on
// collision, PEBA doubles the slot count and the transmission is
// rescheduled (the linear ablation retries with the same prioritized delay).
func (p *Peer) transmitBitmap(cs *collectionState) {
	if !p.running || cs.manifest == nil {
		return
	}
	s := &cs.session
	if s.transmitted {
		return
	}
	s.txSeq++
	if cs.dataPrefix == nil {
		cs.dataPrefix = bitmapDataPrefix(cs.bitmapName, p.id)
	}
	d := &ndn.Data{
		Name: cs.dataPrefix.AppendSeq(s.txSeq),
		Content: bitmapPayload{
			Collection: cs.uri,
			Owner:      p.id,
			Bitmap:     cs.own,
		}.encode(),
	}
	d.SignDigest()
	p.stats.BitmapDataSent++
	p.medium.BroadcastNotify(p.radio, d.Encode(), func(collided bool) {
		if !collided {
			s.transmitted = true
			s.lastActivity = p.k.Now()
			return
		}
		p.stats.BitmapCollisions++
		if p.cfg.UsePEBA {
			s.backoff.OnCollision()
		}
		if !cs.txPending() && !s.transmitted {
			p.scheduleBitmapTx(cs)
		}
	})
}

// readvertise restarts the advertisement exchange, used when a subscribed
// collection has stalled with missing packets but live neighbors.
func (p *Peer) readvertise(cs *collectionState) {
	s := &cs.session
	if s.active {
		s.transmitted = false
	}
	p.sendBitmapInterest(cs)
}
