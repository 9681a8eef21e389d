// Command perfbench is the repository's DAPES benchmark. It runs registered
// experiment scenarios from outside, one trial at a time in one process,
// and reports host cost and the paper's outcomes end to end (untraced) or a
// per-module CPU ledger (traced, from a runtime/pprof profile). README.md
// describes the workloads, the metrics and how to read them.
//
//	bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1|both>
//
// Every metric is printed as "<workload> <name> <value> <unit>"; the last
// line is one JSON object {correct, attempted, failed, metrics}. The exit
// status is non-zero when any check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"dapes/internal/experiment"
)

type metricSpec struct{ name, unit string }

// endToEnd are the untraced run's metrics.
var endToEnd = []metricSpec{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"allocs", "count"},
	{"alloc_bytes", "bytes"},
	{"peak_heap_bytes", "bytes"},
	{"setup_s", "s"},
	{"download_time_mean_s", "sim_s"},
	{"transmissions_mean", "count"},
	{"completion_ratio", "ratio"},
	{"forward_accuracy", "ratio"},
}

// perLayer are the traced run's metrics: CPU seconds and share of every
// ledger layer, then the counters measured beside the profile.
var perLayer = func() []metricSpec {
	var m []metricSpec
	for _, l := range layers {
		m = append(m, metricSpec{l + ".cpu_s", "s"}, metricSpec{l + ".share", "ratio"})
	}
	return append(m,
		metricSpec{"gc.cycles", "count"},
		metricSpec{"gc.exact_cpu_s", "s"},
		metricSpec{"phy.tx", "count"},
		metricSpec{"sim.shard.busy_cores", "cores"},
		metricSpec{"trace.overhead_s", "s"},
		metricSpec{"fault.recovery_s", "sim_s"},
	)
}()

// setupReps is how many first-instant runs setup_s takes the median of.
const setupReps = 21

// maxOtherShare is the largest share of profiled CPU the ledger may leave
// unattributed before the traced run counts as failed.
const maxOtherShare = 0.05

// report is the outcome of one workload in one mode.
type report struct {
	workload  string
	values    map[string]float64
	attempted int
	failed    int
	problems  []string
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "base seed; trial i runs at experiment.TrialSeed(seed, i)")
	seconds := flag.Float64("seconds", 25, "how long the measured phase of one run lasts")
	trace := flag.String("trace", "both", "0: untraced end-to-end metrics, 1: traced per-layer metrics, both")
	flag.Parse()

	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := findWorkload(*name); ok {
		selected = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	var modes []bool // traced?
	switch *trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0, 1 or both, got %q\n", *trace)
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))

	var reports []report
	var specs [][]metricSpec
	for _, w := range selected {
		for _, traced := range modes {
			sc, ok := experiment.Lookup(w.scenario)
			if !ok {
				fmt.Fprintf(os.Stderr, "perfbench: scenario %q is not registered\n", w.scenario)
				os.Exit(2)
			}
			mode, spec := "untraced", endToEnd
			if traced {
				mode, spec = "traced", perLayer
			}
			fmt.Printf("run: workload=%s mode=%s scenario=%s trials=%d seed=%d shards=%d num_cpu=%d gomaxprocs=%d go=%s os_arch=%s/%s seconds=%g\n",
				w.name, mode, w.scenario, w.trials, *seed, w.shards,
				runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, *seconds)
			var r report
			if traced {
				r = runTraced(w, sc, *seed, budget)
			} else {
				r = runUntraced(w, sc, *seed, budget)
			}
			for _, m := range spec {
				fmt.Printf("%s %s %.6g %s\n", w.name, m.name, r.values[m.name], m.unit)
			}
			for _, p := range r.problems {
				fmt.Printf("%s check FAILED: %s\n", w.name, p)
			}
			reports = append(reports, r)
			specs = append(specs, spec)
		}
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for i, r := range reports {
		out.Attempted += r.attempted
		out.Failed += r.failed
		if len(r.problems) > 0 {
			out.Correct = false
		}
		for _, m := range specs[i] {
			key := m.name
			if len(reports) > 1 {
				key = r.workload + "/" + m.name
			}
			out.Metrics[key] = value{r.values[m.name], m.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct || out.Failed > 0 {
		os.Exit(1)
	}
}

// runUntraced measures set-up time, then runs passes of the workload for
// the time budget and reports each host metric as the median over passes.
// Every pass must reproduce the first pass's trials exactly.
func runUntraced(w workload, sc *experiment.Scenario, seed int64, budget time.Duration) report {
	r := report{workload: w.name, values: map[string]float64{}}
	s := w.Scale(seed)

	setup := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		p, err := runPass(sc, setupScale(s), false)
		if err != nil {
			r.attempted, r.failed = s.Trials, s.Trials
			r.fail("set-up: %v", err)
			return r
		}
		setup = append(setup, p.wall.Seconds())
	}
	r.values["setup_s"] = median(setup)

	passes, ok := runPasses(&r, sc, s, budget, false)
	if !ok {
		return r
	}
	r.values["wall_s"] = medianOf(passes, func(p pass) float64 { return p.wall.Seconds() })
	r.values["cpu_s"] = medianOf(passes, func(p pass) float64 { return p.cpu })
	r.values["allocs"] = medianOf(passes, func(p pass) float64 { return float64(p.allocs) })
	r.values["alloc_bytes"] = medianOf(passes, func(p pass) float64 { return float64(p.bytes) })
	r.values["peak_heap_bytes"] = medianOf(passes, func(p pass) float64 { return float64(p.peakLive) })
	paperOutcomes(&r, passes[0].res)
	return r
}

// runTraced runs one untraced reference pass, then profiled passes for the
// time budget, folds the profile into the layer ledger and checks that
// profiling changed no trial result.
func runTraced(w workload, sc *experiment.Scenario, seed int64, budget time.Duration) report {
	r := report{workload: w.name, values: map[string]float64{}}
	s := w.Scale(seed)

	ref, ok := runPasses(&r, sc, s, 0, false)
	if !ok {
		return r
	}
	passes, ok := runPasses(&r, sc, s, budget, true)
	if !ok {
		return r
	}
	for i, p := range passes {
		if d := sameTrials(ref[0].res.Trials, p.res.Trials); d != "" {
			r.fail("traced pass %d differs from the untraced run: %s", i, d)
		}
	}

	led := ledger{}
	var wall time.Duration
	for _, p := range passes {
		led.add(p.samples)
		wall += p.wall
	}
	total := led.total()
	n := float64(len(passes))
	for _, l := range layers {
		r.values[l+".cpu_s"] = float64(led[l]) / 1e9 / n
		if total > 0 {
			r.values[l+".share"] = float64(led[l]) / float64(total)
		}
	}
	if total == 0 {
		r.fail("the profile holds no samples")
	} else if share := r.values["other.share"]; share > maxOtherShare {
		r.fail("%.1f%% of profiled CPU is in no layer (limit %.0f%%)", 100*share, 100*maxOtherShare)
	}
	r.values["gc.cycles"] = medianOf(passes, func(p pass) float64 { return float64(p.gcCycles) })
	r.values["gc.exact_cpu_s"] = medianOf(passes, func(p pass) float64 { return p.gcCPU })
	var tx uint64
	var recovery time.Duration
	for _, t := range ref[0].res.Trials {
		tx += t.Transmissions
		recovery += t.Recovery
	}
	r.values["phy.tx"] = float64(tx)
	r.values["fault.recovery_s"] = recovery.Seconds() / float64(len(ref[0].res.Trials))
	r.values["sim.shard.busy_cores"] = float64(total) / float64(wall)
	r.values["trace.overhead_s"] = medianOf(passes, func(p pass) float64 { return p.wall.Seconds() }) - ref[0].wall.Seconds()
	return r
}

// runPasses runs passes until the next one would overrun the budget (at
// least one), counting attempted and failed trials into r. Every pass must
// reproduce the first one's trials and complete at least one download.
func runPasses(r *report, sc *experiment.Scenario, s experiment.Scale, budget time.Duration, profile bool) ([]pass, bool) {
	var passes []pass
	start := time.Now()
	for len(passes) == 0 || time.Since(start)+passes[len(passes)-1].wall <= budget {
		r.attempted += s.Trials
		p, err := runPass(sc, s, profile)
		if err != nil {
			r.failed += s.Trials
			r.fail("%v", err)
			return nil, false
		}
		if len(passes) > 0 {
			if d := sameTrials(passes[0].res.Trials, p.res.Trials); d != "" {
				r.fail("pass %d differs from pass 0: %s", len(passes), d)
			}
		} else if completion(p.res) == 0 {
			r.fail("no download completed: the workload is vacuous")
		}
		passes = append(passes, p)
	}
	return passes, true
}

func completion(res experiment.RunResult) float64 {
	done, all := 0, 0
	for _, t := range res.Trials {
		done += t.Completed
		all += t.Downloaders
	}
	if all == 0 {
		return 0
	}
	return float64(done) / float64(all)
}

// paperOutcomes records the paper's metrics, in virtual time, from one
// pass: the mean over trials of each trial's average download time (a
// missed download counts as the horizon) and of its transmissions, the
// share of attempted downloads that completed, and the mean forwarding
// accuracy.
func paperOutcomes(r *report, res experiment.RunResult) {
	var dl time.Duration
	var tx uint64
	acc := 0.0
	for _, t := range res.Trials {
		dl += t.AvgDownloadTime
		tx += t.Transmissions
		acc += t.ForwardAccuracy
	}
	n := float64(len(res.Trials))
	r.values["download_time_mean_s"] = dl.Seconds() / n
	r.values["transmissions_mean"] = float64(tx) / n
	r.values["completion_ratio"] = completion(res)
	r.values["forward_accuracy"] = acc / n
}
