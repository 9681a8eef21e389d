package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync/atomic"
	"time"

	"dapes/internal/experiment"
)

// pass is one serial run of every trial of a workload, with the host cost
// measured around it.
type pass struct {
	res      experiment.RunResult
	wall     time.Duration
	cpu      float64 // user + GC CPU seconds
	gcCPU    float64 // GC CPU seconds
	gcCycles uint64  // automatic GC cycles
	allocs   uint64
	bytes    uint64
	peakLive uint64 // largest live heap any GC cycle found during the pass
	samples  []stackSample
}

// The runtime/metrics samples a pass reads. The runtime folds CPU time into
// the /cpu/classes metrics only when a GC cycle ends and flushes per-P
// allocation counts only at GC, so runPass forces a cycle on both sides of
// the measured interval; the closing cycle's own cost (collecting the dead
// trial worlds) is part of cpu_s.
var hostSamples = []string{
	"/cpu/classes/user:cpu-seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/automatic:gc-cycles",
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
}

type hostReading struct {
	user, gc              float64
	cycles, allocs, bytes uint64
}

func readHost() hostReading {
	s := make([]metrics.Sample, len(hostSamples))
	for i, name := range hostSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return hostReading{
		user:   s[0].Value.Float64(),
		gc:     s[1].Value.Float64(),
		cycles: s[2].Value.Uint64(),
		allocs: s[3].Value.Uint64() + s[4].Value.Uint64(),
		bytes:  s[5].Value.Uint64(),
	}
}

// runPass runs the workload's trials once, serially, through the registered
// scenario's Run, and measures the host cost around the call. With profile
// set, a CPU profile covers exactly the trials.
func runPass(sc *experiment.Scenario, s experiment.Scale, profile bool) (pass, error) {
	runtime.GC()
	before := readHost()
	var prof bytes.Buffer
	if profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return pass{}, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	peak := watchLiveHeap()
	start := time.Now()
	res, err := experiment.Runner{Workers: 1}.Run(sc, s, wifiRange)
	wall := time.Since(start)
	live := peak.stop()
	if profile {
		pprof.StopCPUProfile()
	}
	runtime.GC()
	after := readHost()
	if err != nil {
		return pass{}, err
	}
	var samples []stackSample
	if profile {
		if samples, err = decodeCPUProfile(prof.Bytes()); err != nil {
			return pass{}, err
		}
	}
	return pass{
		samples:  samples,
		res:      res,
		wall:     wall,
		cpu:      (after.user - before.user) + (after.gc - before.gc),
		gcCPU:    after.gc - before.gc,
		gcCycles: after.cycles - before.cycles,
		allocs:   after.allocs - before.allocs,
		bytes:    after.bytes - before.bytes,
		peakLive: live,
	}, nil
}

// liveHeapWatch records the largest live heap the GC reports between
// watchLiveHeap and stop. A finalizer on a fresh sentinel runs once after
// every GC cycle and re-arms itself, so the watch costs one metrics read
// per cycle and no polling goroutine.
type liveHeapWatch struct {
	max     atomic.Uint64
	stopped atomic.Bool
}

// sentinel holds a pointer so it is not a tiny allocation: a tiny object
// may share its block with others and never be finalized.
type sentinel struct{ _ *byte }

func watchLiveHeap() *liveHeapWatch {
	w := &liveHeapWatch{}
	w.arm()
	return w
}

func (w *liveHeapWatch) arm() {
	runtime.SetFinalizer(&sentinel{}, func(*sentinel) {
		if w.stopped.Load() {
			return
		}
		w.observe()
		w.arm()
	})
}

func (w *liveHeapWatch) observe() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		cur := w.max.Load()
		if v <= cur || w.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// stop ends the watch, first folding in the live heap of the last cycle in
// case its finalizer has not run yet, and returns the maximum seen.
func (w *liveHeapWatch) stop() uint64 {
	w.observe()
	w.stopped.Store(true)
	return w.max.Load()
}

// setupScale cuts the workload's virtual time to its first instant: a run
// at this scale builds the collection, the world and the peers, runs the
// events due at t=0, and stops.
func setupScale(s experiment.Scale) experiment.Scale {
	s.Horizon = time.Nanosecond
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf applies f to every pass and returns the median.
func medianOf(ps []pass, f func(pass) float64) float64 {
	v := make([]float64, len(ps))
	for i, p := range ps {
		v[i] = f(p)
	}
	return median(v)
}

// sameTrials reports the first field in which two runs' per-trial results
// differ, or "" when they are identical.
func sameTrials(want, got []experiment.TrialResult) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d trials, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Sprintf("trial %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	return ""
}
