// Command dapes-plan is the declarative sweep harness. `dapes-plan run`
// executes a plan file (TOML subset or JSON, see docs/EXPERIMENTS.md
// "Plan files"): the named scenario runs at every grid cell, cells fan
// across a worker pool, per-cell results stream as JSON-lines, and a run
// report (grid table + best/worst cells per optimize target) follows.
// `dapes-plan report` loads the committed BENCH_*.json perf trajectory and
// renders per-metric series, deltas, and threshold breaches under the
// gate rules of internal/perf.
//
// Determinism contract: a plan run's output is byte-identical for any
// -workers value — cell c's trials seed from TrialSeed(CellSeed(seed, c),
// t) and results stream in cell order.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"dapes/internal/experiment"
	"dapes/internal/perf"
	"dapes/internal/plan"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dapes-plan:", err)
		os.Exit(1)
	}
}

func usage() error {
	return fmt.Errorf(`usage:
  dapes-plan run PLAN_FILE [-workers N] [-shards N] [-format text|json|csv] [-o FILE] [-no-stream]
      run a plan: stream per-cell JSON-lines, then render the run report
  dapes-plan report [SNAPSHOT.json ...] [-format text|json|csv] [-o FILE] [-fail-on-breach]
      render the perf trajectory from BENCH_*.json snapshots (default glob: BENCH_*.json)`)
}

func run(args []string) error {
	if len(args) == 0 {
		return usage()
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:])
	case "report":
		return cmdReport(args[1:])
	case "-h", "-help", "--help", "help":
		return usage()
	}
	return fmt.Errorf("unknown subcommand %q\n%v", args[0], usage())
}

// parseWithTrailingFlags lets flags follow the positional arguments
// (`dapes-plan run plan.toml -workers=4`), which the stock flag package
// would otherwise treat as positionals.
func parseWithTrailingFlags(fs *flag.FlagSet, args []string) ([]string, error) {
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	var pos []string
	for fs.NArg() > 0 {
		rest := fs.Args()
		pos = append(pos, rest[0])
		if err := fs.Parse(rest[1:]); err != nil {
			return nil, err
		}
	}
	return pos, nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	var (
		workers  = fs.Int("workers", 1, "grid cells in flight; output is identical at any pool size")
		shards   = fs.Int("shards", 0, "override every cell's kernel stripe count (0 = plan/scenario default, 1 = sequential-equivalent)")
		format   = fs.String("format", "text", "run-report format: text, json, or csv")
		outPath  = fs.String("o", "", "write the run report to this file instead of stdout")
		noStream = fs.Bool("no-stream", false, "suppress the per-cell JSON-lines stream")
	)
	pos, err := parseWithTrailingFlags(fs, args)
	if err != nil {
		return err
	}
	if len(pos) != 1 {
		return fmt.Errorf("run wants exactly one plan file, got %d\n%v", len(pos), usage())
	}

	out, f, closeOut, err := experiment.OpenOutput(*outPath, *format)
	if err != nil {
		return err
	}
	defer closeOut()

	p, err := plan.ParseFile(pos[0])
	if err != nil {
		return err
	}

	// The JSON-lines stream goes to stdout; the report follows on the same
	// stream (or lands in -o). With -o set, stdout carries only the
	// stream, so `dapes-plan run plan.toml -o report.txt > cells.jsonl`
	// separates the two artifacts.
	var stream io.Writer = os.Stdout
	if *noStream {
		stream = nil
	}
	res, err := plan.Run(p, plan.Options{Workers: *workers, Stream: stream, Shards: *shards})
	if err != nil {
		return err
	}
	return experiment.EmitTables(out, f, res.Tables()...)
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	var (
		format   = fs.String("format", "text", "report format: text, json, or csv")
		outPath  = fs.String("o", "", "write the report to this file instead of stdout")
		failFlag = fs.Bool("fail-on-breach", false, "exit non-zero when any gated metric regressed past its threshold")
	)
	pos, err := parseWithTrailingFlags(fs, args)
	if err != nil {
		return err
	}
	paths := pos
	if len(paths) == 0 {
		paths, err = defaultSnapshots()
		if err != nil {
			return err
		}
	}

	out, f, closeOut, err := experiment.OpenOutput(*outPath, *format)
	if err != nil {
		return err
	}
	defer closeOut()

	snaps, err := perf.LoadTrajectory(paths...)
	if err != nil {
		return err
	}
	tables, brs, err := perf.TrajectoryReport(snaps)
	if err != nil {
		return err
	}
	if err := experiment.EmitTables(out, f, tables...); err != nil {
		return err
	}
	if *failFlag && len(brs) > 0 {
		return fmt.Errorf("%d gated metric(s) regressed past their threshold", len(brs))
	}
	return nil
}

func defaultSnapshots() ([]string, error) {
	paths, err := sortedGlob("BENCH_*.json")
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no BENCH_*.json snapshots in the current directory (run from the repo root or pass files)")
	}
	return paths, nil
}

func sortedGlob(pattern string) ([]string, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}
