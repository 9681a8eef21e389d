// Command bench-snapshot emits a machine-readable performance snapshot of
// the hot paths this repo optimizes, for the perf-trajectory files checked
// in at the repo root (BENCH_<n>.json, written with `-issue <n> -o`) and
// re-measured by `make bench-check` in CI. Unlike `go test -bench` output,
// the snapshot is stable JSON: downstream tooling can diff allocs/op and
// scenario download times across PRs without scraping benchmark logs.
//
// The snapshot's sections:
//
//   - wire: the encode-once/decode-once codec path (cached encode, shared
//     decode, the per-extra-receiver memo hit)
//   - phy: one full dense broadcast through the grid-indexed medium
//   - kernel: the event-kernel hot paths — the schedule/cancel/reschedule
//     churn mix on both queue backends (old heap vs new wheel) and the
//     Timer.Reset steady state, whose 0 allocs/op is a pinned contract
//   - scenarios: download time, transmissions, and total allocations for
//     the dense urban-grid scenarios at a small fixed scale; each must
//     complete at least one download
//   - shard: the shard-scaling section — wall-clock of one dense trial on
//     one stripe (the sequential simulation) versus 2 and 4 stripes, plus
//     the headline urban-metro trial (50k nodes, 4 stripes) at the plan
//     scale of plans/urban-metro.toml
//   - fault: one urban-grid-chaos trial — crashes, cold restarts, and
//     Gilbert-Elliott loss through internal/fault — pricing what the
//     hardening costs on top of the clean urban-grid scenario above it
//
// The schema and the per-section gate rules `-check` applies live in
// internal/perf. Numbers move with hardware; the gates track allocation
// counts (which do not) and relative regressions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"dapes/internal/experiment"
	"dapes/internal/geo"
	"dapes/internal/ndn"
	"dapes/internal/perf"
	"dapes/internal/phy"
	"dapes/internal/sim"
)

func bench(name string, fn func(b *testing.B)) perf.Bench {
	r := testing.Benchmark(fn)
	return perf.Bench{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// wireBenches measures the codec path with the public API: a stored packet
// answering repeatedly (cached encode), one broadcast decoded once, and the
// k-th receiver's memo hit.
func wireBenches() []perf.Bench {
	mk := func() *ndn.Data {
		d := &ndn.Data{Name: ndn.ParseName("/field-report/image-000/17"), Content: make([]byte, 1000)}
		d.SignDigest()
		return d
	}
	out := []perf.Bench{
		bench("wire/encode-cached", func(b *testing.B) {
			d := mk()
			d.Encode()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(d.Encode()) == 0 {
					b.Fatal("empty encode")
				}
			}
		}),
		bench("wire/decode-once", func(b *testing.B) {
			wire := mk().Encode()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ndn.NewPacket(wire).Data() == nil {
					b.Fatal("decode failed")
				}
			}
		}),
		bench("wire/extra-receiver", func(b *testing.B) {
			pkt := ndn.NewPacket(mk().Encode())
			first := pkt.Data()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if pkt.Data() != first {
					b.Fatal("memo miss")
				}
			}
		}),
	}
	return out
}

// phyBenches replays the BenchmarkBroadcastDense world (constant density,
// grid index) at N=1000: one broadcast end to end including delivery.
func phyBenches() []perf.Bench {
	const n = 1000
	return []perf.Bench{
		bench("phy/broadcast-dense/grid/N=1000", func(b *testing.B) {
			k := sim.NewKernel(42)
			m := phy.NewMedium(k, phy.Config{Range: 60, Index: phy.IndexGrid})
			side := math.Sqrt(float64(n)) * 45
			area := geo.Rect{Width: side, Height: side}
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < n; i++ {
				m.Attach(geo.NewRandomDirection(geo.RandomDirectionConfig{
					Area:  area,
					Start: geo.Point{X: rng.Float64() * side, Y: rng.Float64() * side},
					RNG:   rand.New(rand.NewSource(int64(i + 1))),
				}))
			}
			radios := m.Radios()
			payload := make([]byte, 256)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Broadcast(radios[i%n], payload)
				k.Run(0)
			}
		}),
	}
}

// kernelBenches measures the event kernel: the schedule-far/cancel-early
// churn that dominates every protocol layer's timer workload, run on the
// reference heap and the timer wheel (the old-vs-new comparison), plus the
// steady-state Timer.Reset whose 0 allocs/op the perf gate pins.
func kernelBenches() []perf.Bench {
	const pending = 100_000
	churn := func(kind sim.QueueKind) func(b *testing.B) {
		return func(b *testing.B) {
			k := sim.NewKernelWithQueue(1, kind)
			fn := func() {}
			timers := make([]*sim.Timer, pending)
			for i := range timers {
				timers[i] = k.NewTimer(fn)
				timers[i].Reset(time.Second + time.Duration(i)*time.Millisecond)
			}
			rngState := uint64(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rngState = rngState*6364136223846793005 + 1442695040888963407
				j := int((rngState >> 33) % uint64(pending))
				timers[j].Reset(time.Second + time.Duration(rngState%uint64(8*time.Second)))
			}
		}
	}
	return []perf.Bench{
		bench("kernel/churn/heap/pending=100000", churn(sim.QueueHeap)),
		bench("kernel/churn/wheel/pending=100000", churn(sim.QueueWheel)),
		bench("kernel/timer-reset", func(b *testing.B) {
			k := sim.NewKernel(1)
			fn := func() {}
			for i := 0; i < 1024; i++ {
				k.Schedule(time.Hour+time.Duration(i)*time.Second, fn)
			}
			tm := k.NewTimer(fn)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tm.Reset(time.Duration(i%7) * time.Millisecond)
			}
		}),
	}
}

// shardBenches measures the parallel kernel through the registered
// urban-metro trial: one dense trial (urban-grid-xl's 25x mix in its 900 m
// area at a short horizon) on one stripe — the sequential simulation —
// and on 2 and 4 stripes, plus the headline metro trial at the exact
// [scale] of plans/urban-metro.toml (50,003 nodes, 4 density-balanced
// stripes). Every entry runs under the scenario's relaxed lookahead.
// Wall-clock is recorded for the speedup trend.
func shardBenches() []perf.Bench {
	const wifiRange = 60.0
	sc, ok := experiment.Lookup("urban-metro")
	if !ok {
		fatal("scenario urban-metro not registered")
	}
	trial := func(s experiment.Scale, shards int) func(b *testing.B) {
		s.Shards = shards
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sc.Run(s, wifiRange, 0); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// The scenario multiplies the mobile mix by 25; a set AreaSide keeps
	// urban-grid-xl's 900 m edge instead of the density-preserving one.
	dense := experiment.ReducedScale()
	dense.Trials = 1
	dense.NumFiles = 1
	dense.PacketsPerFile = 8
	dense.PacketSize = 200
	dense.Horizon = 10 * time.Second
	dense.AreaSide = 900
	// The plan's exact [scale]: 2+8+1912+80 expands to 50,003 nodes.
	metro := experiment.ReducedScale()
	metro.Trials = 1
	metro.NumFiles = 1
	metro.PacketsPerFile = 4
	metro.PacketSize = 200
	metro.Horizon = 10 * time.Second
	metro.Stationary = 2
	metro.MobileDown = 8
	metro.PureForwarders = 1912
	metro.Intermediates = 80
	metro.BaseSeed = 11

	return []perf.Bench{
		bench("shard/urban-dense-trial/sequential", trial(dense, 1)),
		bench("shard/urban-dense-trial/shards=2", trial(dense, 2)),
		bench("shard/urban-dense-trial/shards=4", trial(dense, 4)),
		bench("shard/urban-metro-trial/shards=4", trial(metro, 4)),
	}
}

// faultBenches measures the fault engine end to end: one urban-grid-chaos
// trial at the snapshot scale, default chaos plan (a third of the eligible
// nodes crash and cold-restart over a bursty GE channel).
func faultBenches() []perf.Bench {
	s := snapshotScale()
	sc, ok := experiment.Lookup("urban-grid-chaos")
	if !ok {
		fatal("scenario urban-grid-chaos not registered")
	}
	return []perf.Bench{
		bench("fault/urban-grid-chaos-trial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sc.Run(s, 60, 0); err != nil {
					b.Fatal(err)
				}
			}
		}),
	}
}

// snapshotScale keeps the dense scenarios CI-sized while leaving enough
// traffic for the wire path to dominate: the golden-trace scale from
// internal/experiment, verbatim.
func snapshotScale() experiment.Scale {
	return experiment.Scale{
		Trials:         1,
		NumFiles:       2,
		PacketsPerFile: 4,
		PacketSize:     200,
		Ranges:         []float64{60},
		Horizon:        90 * time.Second,
		Stationary:     2,
		MobileDown:     2,
		PureForwarders: 1,
		Intermediates:  1,
		LossRate:       0.10,
		BaseSeed:       7,
	}
}

// runScenario measures one dense scenario at the snapshot scale. A run
// that completes no download is an error: its numbers would price a
// workload that does no DAPES work.
func runScenario(name string) (perf.Scenario, error) {
	sc, ok := experiment.Lookup(name)
	if !ok {
		return perf.Scenario{}, fmt.Errorf("scenario %q not registered", name)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := experiment.Runner{Workers: 1}.Run(sc, snapshotScale(), 60)
	if err != nil {
		return perf.Scenario{}, err
	}
	runtime.ReadMemStats(&after)
	completed, downloaders := 0, 0
	for _, tr := range res.Trials {
		completed += tr.Completed
		downloaders += tr.Downloaders
	}
	if completed == 0 {
		return perf.Scenario{}, fmt.Errorf("scenario %s completed 0 of %d downloads", name, downloaders)
	}
	return perf.Scenario{
		Name:            name,
		DownloadTime90S: res.DownloadTime90.Seconds(),
		Transmissions90: res.Transmissions90,
		Allocs:          after.Mallocs - before.Mallocs,
		Bytes:           after.TotalAlloc - before.TotalAlloc,
	}, nil
}

// fatal prints its arguments after the command name and exits 1.
func fatal(args ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"bench-snapshot:"}, args...)...)
	os.Exit(1)
}

func main() {
	out := flag.String("o", "", "write the snapshot to this file (default stdout)")
	issue := flag.Int("issue", 0, "issue number recorded in the snapshot (required unless -check)")
	check := flag.String("check", "", "re-measure and fail if alloc numbers regressed vs this committed snapshot (no file is written)")
	rebase := flag.String("rebase", "", "comma-separated gated metrics ('name (unit)') this snapshot intentionally moves; the trajectory report treats them as baseline resets")
	rebaseNote := flag.String("rebase-note", "", "one-line rationale recorded alongside -rebase")
	flag.Parse()
	var committed []perf.Snapshot
	if *check != "" {
		var err error
		if committed, err = perf.LoadTrajectory(*check); err != nil {
			fatal(err)
		}
	} else if *issue <= 0 {
		fatal("-issue is required to write a snapshot (each BENCH_<n>.json claims its own issue)")
	}

	snap := perf.Snapshot{
		Issue:          *issue,
		GoVersion:      runtime.Version(),
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Wire:           wireBenches(),
		Phy:            phyBenches(),
		Kernel:         kernelBenches(),
		Shard:          shardBenches(),
		Fault:          faultBenches(),
		RebaselineNote: *rebaseNote,
	}
	if *rebase != "" {
		for _, m := range strings.Split(*rebase, ",") {
			if m = strings.TrimSpace(m); m != "" {
				snap.Rebaselined = append(snap.Rebaselined, m)
			}
		}
	}
	for _, name := range []string{"urban-grid", "urban-grid-xl", "urban-metro"} {
		res, err := runScenario(name)
		if err != nil {
			fatal(err)
		}
		snap.Scenarios = append(snap.Scenarios, res)
	}

	if *check != "" {
		if brs := perf.Check(committed[0], snap); len(brs) > 0 {
			for _, b := range brs {
				fmt.Fprintf(os.Stderr, "bench-snapshot: REGRESSION: %s: %.0f, committed snapshot has %.0f (%s)\n",
					b.Metric, b.Cur, b.Prev, b.Rule)
			}
			os.Exit(1)
		}
		fmt.Printf("bench-snapshot: no alloc regressions vs %s\n", *check)
		return
	}

	enc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
}
