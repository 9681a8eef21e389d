package core

import (
	"testing"
	"time"

	"dapes/internal/geo"
	"dapes/internal/metadata"
	"dapes/internal/ndn"
)

// TestStopDrainsPending is the Stop-cancels-everything regression test: a
// peer stopped mid-fetch (reply timers armed, metadata retries pending,
// Interests in flight) must leave nothing armed in the kernel. Any timer
// Stop misses keeps the event queue alive forever — exactly the leak the
// fault engine's Crash path cannot afford.
func TestStopDrainsPending(t *testing.T) {
	t.Parallel()
	net := newTestNet(29, 100)
	res := testCollection(t, 2, 10, metadata.FormatPacketDigest)

	producer := net.peer(geo.Point{X: 0, Y: 0}, Config{})
	if err := producer.Publish(res); err != nil {
		t.Fatal(err)
	}
	downloader := net.peer(geo.Point{X: 30, Y: 0}, Config{})
	downloader.Subscribe(ndn.ParseName("/coll-123"))
	producer.Start()
	downloader.Start()

	// Deep enough into the exchange that discovery replies, metadata
	// retries, and data Interests are all armed somewhere.
	net.k.Run(5 * time.Second)
	producer.Stop()
	downloader.Stop()

	// Already-queued one-shot sends may still fire (they no-op on !running);
	// after they drain, nothing may remain armed.
	net.k.Run(2 * time.Minute)
	if got := net.k.Pending(); got != 0 {
		t.Fatalf("%d events still pending after Stop drained", got)
	}
}

// TestCrashSilences: a crashed peer transmits nothing and hears nothing.
func TestCrashSilences(t *testing.T) {
	t.Parallel()
	net := newTestNet(31, 100)
	a := net.peer(geo.Point{}, Config{})
	b := net.peer(geo.Point{X: 20}, Config{})
	a.Start()
	b.Start()
	net.k.Run(10 * time.Second)

	a.Crash()
	sent := a.Stats().TotalSent()
	net.k.Run(2 * time.Minute)
	// TotalSent pins both halves: no beacons of its own, and no replies to
	// b's beacons (its radio hears nothing while crashed).
	if got := a.Stats().TotalSent(); got != sent {
		t.Fatalf("crashed peer kept transmitting: %d -> %d", sent, got)
	}
}

// TestCrashRestartRecompletes drives the full lifecycle the chaos scenarios
// rely on: a downloader that finishes, crashes (losing its volatile CS, PIT,
// and FIB), and cold-restarts must re-discover the producer through its
// retained subscription and re-complete the download.
func TestCrashRestartRecompletes(t *testing.T) {
	t.Parallel()
	net := newTestNet(37, 100)
	res := testCollection(t, 2, 10, metadata.FormatPacketDigest)
	coll := res.Manifest.Collection

	producer := net.peer(geo.Point{X: 0, Y: 0}, Config{})
	if err := producer.Publish(res); err != nil {
		t.Fatal(err)
	}
	downloader := net.peer(geo.Point{X: 30, Y: 0}, Config{})
	downloader.Subscribe(ndn.ParseName("/coll-123"))
	// The complete and forget callbacks must pair up with Done's
	// transitions: that is what a completion counter relies on.
	completed, forgotten := 0, 0
	for _, p := range []*Peer{producer, downloader} {
		p.SetOnComplete(func(ndn.Name, time.Duration) { completed++ })
		p.SetOnForget(func(ndn.Name) { forgotten++ })
	}
	producer.Start()
	downloader.Start()

	if ok := net.k.RunUntil(5*time.Minute, func() bool {
		done, _ := downloader.Done(coll)
		return done
	}); !ok {
		t.Fatal("first download incomplete")
	}
	if completed != 1 || forgotten != 0 {
		t.Fatalf("after the download: %d completions, %d forgets; want 1, 0", completed, forgotten)
	}

	downloader.Crash()
	crashedAt := net.k.Now()
	net.k.Run(30 * time.Second)
	downloader.Restart()
	if done, _ := downloader.Done(coll); done {
		t.Fatal("cold restart kept completed state: tables must be volatile")
	}
	if forgotten != 1 {
		t.Fatalf("restart forgot a completed download but fired %d forgets, want 1", forgotten)
	}

	if ok := net.k.RunUntil(crashedAt+10*time.Minute, func() bool {
		done, _ := downloader.Done(coll)
		return done
	}); !ok {
		have, total := downloader.Progress(coll)
		t.Fatalf("no re-completion after restart: %d/%d packets", have, total)
	}
	if done, at := downloader.Done(coll); !done || at <= crashedAt {
		t.Fatalf("re-completion Done = %v at %v (crash was %v)", done, at, crashedAt)
	}

	// The producer's published packets survive its own crash/restart cycle
	// (durable origin storage), only the session caches reset.
	producer.Crash()
	producer.Restart()
	for i := 0; i < res.Manifest.TotalPackets(); i++ {
		if !producer.HasPacket(coll, i) {
			t.Fatalf("producer lost published packet %d across restart", i)
		}
	}
	if completed != 2 || forgotten != 1 {
		t.Fatalf("after re-completion and a producer restart: %d completions, %d forgets; want 2, 1", completed, forgotten)
	}
}

// TestRestartWhileRunningIsANoOp: Restart on a live peer must not wipe its
// state (it guards on running, mirroring Start).
func TestRestartWhileRunningIsANoOp(t *testing.T) {
	t.Parallel()
	net := newTestNet(41, 100)
	res := testCollection(t, 1, 4, metadata.FormatPacketDigest)
	p := net.peer(geo.Point{}, Config{})
	if err := p.Publish(res); err != nil {
		t.Fatal(err)
	}
	p.Start()
	net.k.Run(time.Second)
	p.Restart()
	if !p.HasPacket(res.Manifest.Collection, 0) {
		t.Fatal("Restart on a running peer dropped state")
	}
}

func TestCrashRestartDeterministic(t *testing.T) {
	t.Parallel()
	run := func() (time.Duration, uint64) {
		net := newTestNet(43, 100)
		res := testCollection(t, 2, 10, metadata.FormatPacketDigest)
		coll := res.Manifest.Collection
		producer := net.peer(geo.Point{X: 0, Y: 0}, Config{})
		if err := producer.Publish(res); err != nil {
			t.Fatal(err)
		}
		dl := net.peer(geo.Point{X: 30, Y: 0}, Config{})
		dl.Subscribe(ndn.ParseName("/coll-123"))
		producer.Start()
		dl.Start()
		net.k.ScheduleFunc(500*time.Millisecond, dl.Crash)
		net.k.ScheduleFunc(20*time.Second, dl.Restart)
		net.k.RunUntil(5*time.Minute, func() bool {
			done, _ := dl.Done(coll)
			return done
		})
		_, at := dl.Done(coll)
		return at, net.medium.Stats().Transmissions
	}
	at1, tx1 := run()
	at2, tx2 := run()
	if at1 != at2 || tx1 != tx2 {
		t.Fatalf("crash/restart trial diverged: (%v, %d) vs (%v, %d)", at1, tx1, at2, tx2)
	}
	if at1 <= 20*time.Second {
		t.Fatalf("completion at %v predates the restart", at1)
	}
}

// TestRestartForgetsNonces pins the cold reboot's dedup wipe: after Restart
// the nonce table is empty, so an Interest whose nonce the peer recorded
// just before crashing is no longer a duplicate, and MemoryFootprint (for
// a peer without collections: neighbor, forwarding and dedup state only)
// is back to zero.
func TestRestartForgetsNonces(t *testing.T) {
	t.Parallel()
	net := newTestNet(47, 100)
	a := net.peer(geo.Point{}, Config{})
	b := net.peer(geo.Point{X: 20}, Config{})
	a.Start()
	b.Start()
	net.k.Run(10 * time.Second)
	last := a.newNonce()
	if a.nonces.Len() < 2 {
		t.Fatalf("nonce table holds %d entries after 10 s of beacons; want its own and b's", a.nonces.Len())
	}
	a.Crash()
	a.Restart()
	if n := a.nonces.Len(); n != 0 {
		t.Fatalf("nonce table holds %d entries after Restart", n)
	}
	if got := a.MemoryFootprint(); got != 0 {
		t.Fatalf("MemoryFootprint after Restart = %d, want 0", got)
	}
	if a.nonces.Duplicate(last, net.k.Now()) {
		t.Fatal("a nonce recorded before the crash is still a duplicate after Restart")
	}
}
