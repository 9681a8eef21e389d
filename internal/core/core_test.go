package core

import (
	"bytes"
	"testing"
	"time"

	"dapes/internal/bitmap"
	"dapes/internal/geo"
	"dapes/internal/metadata"
	"dapes/internal/ndn"
	"dapes/internal/phy"
	"dapes/internal/sim"
)

// testNet is a small in-range network fixture.
type testNet struct {
	k      *sim.Kernel
	medium *phy.Medium
}

func newTestNet(seed int64, rng float64) *testNet {
	k := sim.NewKernel(seed)
	return &testNet{k: k, medium: phy.NewMedium(k, phy.Config{Range: rng})}
}

func (n *testNet) peer(at geo.Point, cfg Config) *Peer {
	return NewPeer(n.k, n.medium, geo.Stationary{At: at}, nil, nil, cfg)
}

func testCollection(t *testing.T, nFiles, pktsPerFile int, format metadata.Format) *metadata.BuildResult {
	t.Helper()
	files := make([]metadata.File, nFiles)
	for i := range files {
		files[i] = metadata.File{
			Name:    "file-" + string(rune('a'+i)),
			Content: bytes.Repeat([]byte{byte(i + 1)}, pktsPerFile*100),
		}
	}
	res, err := metadata.BuildCollection(ndn.ParseName("/coll-123"), files, 100, format, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTwoPeerTransfer(t *testing.T) {
	t.Parallel()
	net := newTestNet(1, 100)
	res := testCollection(t, 2, 10, metadata.FormatPacketDigest)

	producer := net.peer(geo.Point{X: 0, Y: 0}, Config{})
	if err := producer.Publish(res); err != nil {
		t.Fatal(err)
	}
	downloader := net.peer(geo.Point{X: 30, Y: 0}, Config{})
	downloader.Subscribe(ndn.ParseName("/coll-123"))

	producer.Start()
	downloader.Start()

	coll := res.Manifest.Collection
	ok := net.k.RunUntil(5*time.Minute, func() bool {
		done, _ := downloader.Done(coll)
		return done
	})
	if !ok {
		have, total := downloader.Progress(coll)
		t.Fatalf("download incomplete: %d/%d packets", have, total)
	}
	done, at := downloader.Done(coll)
	if !done || at <= 0 {
		t.Fatalf("Done = %v at %v", done, at)
	}
	// Every packet must verify against the manifest.
	for i := 0; i < res.Manifest.TotalPackets(); i++ {
		if !downloader.HasPacket(coll, i) {
			t.Fatalf("missing packet %d", i)
		}
	}
	if downloader.Stats().VerifyFailures != 0 {
		t.Fatalf("verify failures: %d", downloader.Stats().VerifyFailures)
	}
}

func TestTwoPeerTransferMerkleFormat(t *testing.T) {
	t.Parallel()
	net := newTestNet(2, 100)
	res := testCollection(t, 2, 8, metadata.FormatMerkle)

	producer := net.peer(geo.Point{X: 0, Y: 0}, Config{})
	if err := producer.Publish(res); err != nil {
		t.Fatal(err)
	}
	downloader := net.peer(geo.Point{X: 20, Y: 0}, Config{})
	downloader.Subscribe(ndn.ParseName("/coll-123"))
	producer.Start()
	downloader.Start()

	ok := net.k.RunUntil(5*time.Minute, func() bool {
		done, _ := downloader.Done(res.Manifest.Collection)
		return done
	})
	if !ok {
		have, total := downloader.Progress(res.Manifest.Collection)
		t.Fatalf("merkle download incomplete: %d/%d", have, total)
	}
}

func TestTransferWithLoss(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(3)
	medium := phy.NewMedium(k, phy.Config{Range: 100, LossRate: 0.10})
	res := testCollection(t, 1, 20, metadata.FormatPacketDigest)

	producer := NewPeer(k, medium, geo.Stationary{}, nil, nil, Config{})
	if err := producer.Publish(res); err != nil {
		t.Fatal(err)
	}
	dl := NewPeer(k, medium, geo.Stationary{At: geo.Point{X: 40}}, nil, nil, Config{})
	dl.Subscribe(res.Manifest.Collection)
	producer.Start()
	dl.Start()

	ok := k.RunUntil(10*time.Minute, func() bool {
		done, _ := dl.Done(res.Manifest.Collection)
		return done
	})
	if !ok {
		have, total := dl.Progress(res.Manifest.Collection)
		t.Fatalf("lossy download incomplete: %d/%d", have, total)
	}
}

func TestThreePeersShareSingleTransmissions(t *testing.T) {
	t.Parallel()
	// Two downloaders in range of the producer and of each other: overheard
	// data must serve both (the paper's "maximize utility of transmissions").
	net := newTestNet(4, 100)
	res := testCollection(t, 1, 15, metadata.FormatPacketDigest)

	cfg := Config{RandomStart: true}
	producer := net.peer(geo.Point{X: 0, Y: 0}, cfg)
	if err := producer.Publish(res); err != nil {
		t.Fatal(err)
	}
	d1 := net.peer(geo.Point{X: 30, Y: 0}, cfg)
	d2 := net.peer(geo.Point{X: 0, Y: 30}, cfg)
	d1.Subscribe(res.Manifest.Collection)
	d2.Subscribe(res.Manifest.Collection)
	producer.Start()
	d1.Start()
	d2.Start()

	ok := net.k.RunUntil(10*time.Minute, func() bool {
		a, _ := d1.Done(res.Manifest.Collection)
		b, _ := d2.Done(res.Manifest.Collection)
		return a && b
	})
	if !ok {
		t.Fatal("both downloads did not complete")
	}
	// Overhearing must have contributed at one of the downloaders: total
	// data transmissions should be well below 2x the packet count.
	total := producer.Stats().DataSent + d1.Stats().DataSent + d2.Stats().DataSent
	n := uint64(res.Manifest.TotalPackets())
	if total >= 2*n {
		t.Fatalf("no transmission sharing: %d data sent for %d packets x 2 peers", total, n)
	}
	if d1.Stats().PacketsOverheard+d2.Stats().PacketsOverheard == 0 {
		t.Fatal("no packets overheard despite shared medium")
	}
}

func TestPeerRelaysBetweenEncounters(t *testing.T) {
	t.Parallel()
	// Data-carrier scenario (Fig. 8a): B meets the producer first, then
	// carries the collection to C who is never in the producer's range.
	k := sim.NewKernel(5)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	res := testCollection(t, 1, 10, metadata.FormatPacketDigest)

	producer := NewPeer(k, medium, geo.Stationary{At: geo.Point{X: 0}}, nil, nil, Config{})
	if err := producer.Publish(res); err != nil {
		t.Fatal(err)
	}
	// Carrier: near producer for 120s, then moves to x=200.
	carrier := NewPeer(k, medium, geo.NewScripted([]geo.Waypoint{
		{At: 0, Pos: geo.Point{X: 30}},
		{At: 120 * time.Second, Pos: geo.Point{X: 30}},
		{At: 150 * time.Second, Pos: geo.Point{X: 200}},
	}), nil, nil, Config{})
	carrier.Subscribe(res.Manifest.Collection)
	// Remote peer at x=220: only ever in range of the carrier's final spot.
	remote := NewPeer(k, medium, geo.Stationary{At: geo.Point{X: 220}}, nil, nil, Config{})
	remote.Subscribe(res.Manifest.Collection)

	producer.Start()
	carrier.Start()
	remote.Start()

	ok := k.RunUntil(15*time.Minute, func() bool {
		done, _ := remote.Done(res.Manifest.Collection)
		return done
	})
	if !ok {
		ch, ct := carrier.Progress(res.Manifest.Collection)
		rh, rt := remote.Progress(res.Manifest.Collection)
		t.Fatalf("relay failed: carrier %d/%d, remote %d/%d", ch, ct, rh, rt)
	}
}

func TestAdaptiveBeaconPeriodGrowsInIsolation(t *testing.T) {
	t.Parallel()
	net := newTestNet(6, 50)
	lonely := net.peer(geo.Point{}, Config{})
	lonely.Start()
	net.k.Run(2 * time.Minute)
	if lonely.beaconPeriod != lonely.cfg.BeaconPeriodMax {
		t.Fatalf("isolated peer period = %v, want max %v", lonely.beaconPeriod, lonely.cfg.BeaconPeriodMax)
	}
	// Beacons must still be sent, just less often.
	if lonely.Stats().DiscoveryInterestsSent == 0 {
		t.Fatal("no beacons sent")
	}
}

func TestAdaptiveBeaconPeriodShrinksOnEncounter(t *testing.T) {
	t.Parallel()
	net := newTestNet(7, 100)
	a := net.peer(geo.Point{X: 0}, Config{})
	b := net.peer(geo.Point{X: 10}, Config{})
	a.Start()
	b.Start()
	net.k.Run(5 * time.Second)
	if a.beaconPeriod > a.cfg.BeaconPeriodMin*2 {
		t.Fatalf("encountering peer period = %v, want near min", a.beaconPeriod)
	}
	if a.NeighborCount() != 1 || b.NeighborCount() != 1 {
		t.Fatalf("neighbors: %d, %d", a.NeighborCount(), b.NeighborCount())
	}
}

func TestNeighborExpiry(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(8)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	a := NewPeer(k, medium, geo.Stationary{}, nil, nil, Config{})
	// b walks out of range after 10s.
	b := NewPeer(k, medium, geo.NewScripted([]geo.Waypoint{
		{At: 0, Pos: geo.Point{X: 10}},
		{At: 10 * time.Second, Pos: geo.Point{X: 10}},
		{At: 12 * time.Second, Pos: geo.Point{X: 500}},
	}), nil, nil, Config{})
	a.Start()
	b.Start()
	k.Run(3 * time.Second)
	if a.NeighborCount() != 1 {
		t.Fatalf("neighbor not discovered: %d", a.NeighborCount())
	}
	k.Run(5 * time.Minute)
	if a.NeighborCount() != 0 {
		t.Fatalf("stale neighbor not expired: %d", a.NeighborCount())
	}
}

func TestBitmapsFirstModeCompletes(t *testing.T) {
	t.Parallel()
	net := newTestNet(9, 100)
	res := testCollection(t, 1, 10, metadata.FormatPacketDigest)
	producer := net.peer(geo.Point{}, Config{AdvertMode: BitmapsFirst, BitmapsBefore: 1})
	if err := producer.Publish(res); err != nil {
		t.Fatal(err)
	}
	dl := net.peer(geo.Point{X: 20}, Config{AdvertMode: BitmapsFirst, BitmapsBefore: 1})
	dl.Subscribe(res.Manifest.Collection)
	producer.Start()
	dl.Start()
	ok := net.k.RunUntil(5*time.Minute, func() bool {
		done, _ := dl.Done(res.Manifest.Collection)
		return done
	})
	if !ok {
		t.Fatal("bitmaps-first download incomplete")
	}
}

func TestAllBitmapsModeCompletes(t *testing.T) {
	t.Parallel()
	net := newTestNet(10, 100)
	res := testCollection(t, 1, 8, metadata.FormatPacketDigest)
	cfg := Config{AdvertMode: BitmapsFirst, BitmapsBefore: 0}
	producer := net.peer(geo.Point{}, cfg)
	if err := producer.Publish(res); err != nil {
		t.Fatal(err)
	}
	dl := net.peer(geo.Point{X: 20}, cfg)
	dl.Subscribe(res.Manifest.Collection)
	producer.Start()
	dl.Start()
	ok := net.k.RunUntil(5*time.Minute, func() bool {
		done, _ := dl.Done(res.Manifest.Collection)
		return done
	})
	if !ok {
		t.Fatal("all-bitmaps download incomplete")
	}
}

func TestEncounterBasedStrategyCompletes(t *testing.T) {
	t.Parallel()
	net := newTestNet(11, 100)
	res := testCollection(t, 1, 10, metadata.FormatPacketDigest)
	cfg := Config{Strategy: EncounterBasedRPF, RandomStart: true}
	producer := net.peer(geo.Point{}, cfg)
	if err := producer.Publish(res); err != nil {
		t.Fatal(err)
	}
	dl := net.peer(geo.Point{X: 20}, cfg)
	dl.Subscribe(res.Manifest.Collection)
	producer.Start()
	dl.Start()
	ok := net.k.RunUntil(5*time.Minute, func() bool {
		done, _ := dl.Done(res.Manifest.Collection)
		return done
	})
	if !ok {
		t.Fatal("encounter-based download incomplete")
	}
}

func TestStatsAccounting(t *testing.T) {
	t.Parallel()
	net := newTestNet(12, 100)
	res := testCollection(t, 1, 5, metadata.FormatPacketDigest)
	producer := net.peer(geo.Point{}, Config{})
	if err := producer.Publish(res); err != nil {
		t.Fatal(err)
	}
	dl := net.peer(geo.Point{X: 20}, Config{})
	dl.Subscribe(res.Manifest.Collection)
	producer.Start()
	dl.Start()
	net.k.RunUntil(5*time.Minute, func() bool {
		done, _ := dl.Done(res.Manifest.Collection)
		return done
	})

	ps, ds := producer.Stats(), dl.Stats()
	if ps.DiscoveryInterestsSent == 0 || ds.DiscoveryInterestsSent == 0 {
		t.Fatal("no discovery beacons counted")
	}
	if ps.DiscoveryDataSent == 0 {
		t.Fatal("producer sent no discovery replies")
	}
	if ds.MetaInterestsSent == 0 || ps.MetaDataSent == 0 {
		t.Fatal("metadata exchange not counted")
	}
	if ds.DataInterestsSent == 0 || ps.DataSent == 0 {
		t.Fatal("data exchange not counted")
	}
	if ds.BitmapInterestsSent == 0 {
		t.Fatal("no bitmap interest sent")
	}
	if ps.TotalSent() == 0 || ds.TotalSent() == 0 {
		t.Fatal("TotalSent zero")
	}
	if dl.MemoryFootprint() == 0 {
		t.Fatal("memory footprint zero for active peer")
	}
}

func TestStopHaltsTraffic(t *testing.T) {
	t.Parallel()
	net := newTestNet(13, 100)
	a := net.peer(geo.Point{}, Config{})
	a.Start()
	net.k.Run(10 * time.Second)
	sent := a.Stats().DiscoveryInterestsSent
	if sent == 0 {
		t.Fatal("no beacons before stop")
	}
	a.Stop()
	net.k.Run(60 * time.Second)
	if got := a.Stats().DiscoveryInterestsSent; got != sent {
		t.Fatalf("beacons after Stop: %d -> %d", sent, got)
	}
}

func TestPublishTwiceDistinctCollections(t *testing.T) {
	t.Parallel()
	net := newTestNet(14, 100)
	p := net.peer(geo.Point{}, Config{})
	res1 := testCollection(t, 1, 3, metadata.FormatPacketDigest)
	files := []metadata.File{{Name: "x", Content: []byte("abc")}}
	res2, err := metadata.BuildCollection(ndn.ParseName("/other"), files, 100, metadata.FormatMerkle, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Publish(res1); err != nil {
		t.Fatal(err)
	}
	if err := p.Publish(res2); err != nil {
		t.Fatal(err)
	}
	if done, _ := p.Done(res1.Manifest.Collection); !done {
		t.Fatal("published collection not done")
	}
	if done, _ := p.Done(res2.Manifest.Collection); !done {
		t.Fatal("second collection not done")
	}
	if h, tot := p.Progress(res1.Manifest.Collection); h != tot || tot == 0 {
		t.Fatalf("producer progress %d/%d", h, tot)
	}
}

func TestUnknownCollectionQueries(t *testing.T) {
	t.Parallel()
	net := newTestNet(15, 100)
	p := net.peer(geo.Point{}, Config{})
	if done, _ := p.Done(ndn.ParseName("/nope")); done {
		t.Fatal("unknown collection reported done")
	}
	if h, tot := p.Progress(ndn.ParseName("/nope")); h != 0 || tot != 0 {
		t.Fatal("unknown collection reported progress")
	}
	if p.HasPacket(ndn.ParseName("/nope"), 0) {
		t.Fatal("unknown collection has packet")
	}
}

// TestNameKeysRespectComponentBoundaries: names whose URI forms coincide
// (Name{"c", "f/0"} and /c/f/0 both print "/c/f/0") are different names,
// and no name-keyed table may confuse them. A wire-decoded Data carrying
// the look-alike name must not cancel the pending reply for the real one,
// and a query for a look-alike collection must not report the real one.
func TestNameKeysRespectComponentBoundaries(t *testing.T) {
	t.Parallel()
	net := newTestNet(5, 100)
	p := net.peer(geo.Point{}, Config{})
	p.Start()

	real := &ndn.Data{Name: ndn.ParseName("/c/f/0"), Content: []byte("x")}
	real.SignDigest()
	var sent uint64
	p.scheduleReply(real, &sent)
	lookAlike := &ndn.Data{Name: ndn.Name{"c", "f/0"}, Content: []byte("y")}
	lookAlike.SignDigest()
	decoded, err := ndn.DecodeData(lookAlike.Encode())
	if err != nil {
		t.Fatal(err)
	}
	p.handleData(99, decoded)
	if len(p.pendingReplies) != 1 {
		t.Fatal("Data named {c, f/0} cancelled the pending reply for /c/f/0")
	}
	p.handleData(99, real)
	if len(p.pendingReplies) != 0 {
		t.Fatal("Data named /c/f/0 did not cancel its own pending reply")
	}

	files := []metadata.File{{Name: "f", Content: bytes.Repeat([]byte{1}, 200)}}
	res, err := metadata.BuildCollection(ndn.Name{"c", "f"}, files, 100, metadata.FormatPacketDigest, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Publish(res); err != nil {
		t.Fatal(err)
	}
	if done, _ := p.Done(ndn.Name{"c", "f"}); !done {
		t.Fatal("published collection {c, f} not done")
	}
	if done, _ := p.Done(ndn.Name{"c/f"}); done {
		t.Fatal("collection {c/f} reported done: it aliases the published {c, f}")
	}
	if have, total := p.Progress(ndn.Name{"c/f"}); have != 0 || total != 0 {
		t.Fatalf("Progress({c/f}) = %d/%d, want 0/0", have, total)
	}
	if p.HasPacket(ndn.Name{"c/f"}, 0) {
		t.Fatal("HasPacket({c/f}) true: it aliases the published {c, f}")
	}
}

// TestPeerAccessorsDoNotAllocate pins the collection accessors a trial's
// harness calls at 0 allocations, for known and unknown collections.
func TestPeerAccessorsDoNotAllocate(t *testing.T) {
	net := newTestNet(6, 100)
	res := testCollection(t, 2, 10, metadata.FormatPacketDigest)
	p := net.peer(geo.Point{}, Config{})
	if err := p.Publish(res); err != nil {
		t.Fatal(err)
	}
	for _, coll := range []ndn.Name{res.Manifest.Collection, ndn.ParseName("/unknown/collection")} {
		known := coll.Equal(res.Manifest.Collection)
		var done, has bool
		var have int
		for name, fn := range map[string]func(){
			"Done":      func() { done, _ = p.Done(coll) },
			"Progress":  func() { have, _ = p.Progress(coll) },
			"HasPacket": func() { has = p.HasPacket(coll, 3) },
		} {
			if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
				t.Errorf("%s(%s): %v allocs, want 0", name, coll, allocs)
			}
		}
		if done != known || has != known || (have > 0) != known {
			t.Fatalf("%s: Done=%v HasPacket=%v have=%d; want known=%v", coll, done, has, have, known)
		}
	}
}

// TestBitmapDataFromKnownNeighborDoesNotAllocate pins the advertisement
// receive path at 0 allocations once a neighbor has been heard: the
// payload decodes into the peer's scratch, the collection is found by a
// key taken from the URI bytes, and the neighbor's stored bitmaps (the
// availability entry and the RPF strategy's copy, or the overheard entry
// of a collection the peer does not hold) are overwritten in place. The
// two alternating advertisements differ, so every copy really happens.
func TestBitmapDataFromKnownNeighborDoesNotAllocate(t *testing.T) {
	res := testCollection(t, 2, 10, metadata.FormatPacketDigest)
	n := res.Manifest.TotalPackets()
	advert := func(coll ndn.Name, owner, seq int, set ...int) *ndn.Data {
		bm := bitmap.New(n)
		for _, i := range set {
			bm.Set(i)
		}
		d := &ndn.Data{
			Name:    bitmapDataPrefix(bitmapInterestName(coll), owner).AppendSeq(seq),
			Content: bitmapPayload{Collection: coll.String(), Owner: owner, Bitmap: bm}.encode(),
		}
		d.SignDigest()
		dec, err := ndn.DecodeData(d.Encode())
		if err != nil {
			t.Fatal(err)
		}
		return dec
	}
	for _, tc := range []struct {
		name string
		coll ndn.Name
	}{
		{"held collection", res.Manifest.Collection},
		{"overheard collection", ndn.ParseName("/other/collection")},
	} {
		net := newTestNet(7, 100)
		p := net.peer(geo.Point{}, Config{Multihop: true})
		if err := p.Publish(res); err != nil {
			t.Fatal(err)
		}
		p.Start()
		const owner = 42
		a, b := advert(tc.coll, owner, 1, 0, 3), advert(tc.coll, owner, 2, 1, 19)
		flip := false
		allocs := testing.AllocsPerRun(100, func() {
			d := a
			if flip = !flip; flip {
				d = b
			}
			p.handleData(owner, d)
		})
		if allocs != 0 {
			t.Errorf("%s: bitmap Data from a known neighbor costs %.1f allocs, want 0", tc.name, allocs)
		}
		cs := p.collections[string(tc.coll.AppendKey(nil))]
		if cs == nil {
			t.Fatalf("%s: no state for %s", tc.name, tc.coll)
		}
		if got := cs.avail[owner]; got == nil || got.Count() != 2 || !(got.Test(0) || got.Test(1)) {
			t.Fatalf("%s: stored availability %v", tc.name, got)
		}
	}
}
