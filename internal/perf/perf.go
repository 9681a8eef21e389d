// Package perf is the one home of the perf-snapshot schema — the
// BENCH_<n>.json documents cmd/bench-snapshot writes — and of the gate
// rules its two readers apply: `bench-snapshot -check` (a fresh
// measurement against the committed snapshot, Check) and `dapes-plan
// report` (the committed trajectory, snapshot after snapshot,
// TrajectoryReport).
//
// The rule table, section by section (Snapshot.metrics):
//
//   - wire and kernel allocs/op must not grow at all: they are exact,
//     deterministic counts (Timer.Reset in particular is pinned at 0);
//   - phy allocs/op get +2 of slack: pool warm-up amortizes differently
//     across b.N;
//   - scenario total allocs and shard allocs/op may drift up to +50%:
//     whole-trial counts carry runtime background allocation;
//   - the fault section is informational: chaos trials re-fetch after
//     cold restarts by design;
//   - times (ns/op, download time) and transmissions never gate: they
//     move with hardware.
package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"

	"dapes/internal/experiment"
)

// Bench is one measured micro-bench or trial.
type Bench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Scenario is one dense-scenario run.
type Scenario struct {
	Name            string  `json:"name"`
	DownloadTime90S float64 `json:"download_time_90_s"`
	Transmissions90 float64 `json:"transmissions_90"`
	// Allocs is the total heap allocation count for the whole trial set —
	// the O(senders x receivers) encode/parse traffic the zero-copy wire
	// path removed shows up here first.
	Allocs uint64 `json:"allocs"`
	Bytes  uint64 `json:"alloc_bytes"`
}

// Snapshot is one BENCH_<n>.json document.
type Snapshot struct {
	Issue     int    `json:"issue"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// NumCPU and GOMAXPROCS record the machine the snapshot was measured
	// on; every time in it is relative to them. Absent (zero) in snapshots
	// written before they were recorded.
	NumCPU     int        `json:"num_cpu,omitempty"`
	GOMAXPROCS int        `json:"gomaxprocs,omitempty"`
	Wire       []Bench    `json:"wire"`
	Phy        []Bench    `json:"phy"`
	Kernel     []Bench    `json:"kernel"`
	Scenarios  []Scenario `json:"scenarios"`
	// Shard is the shard-scaling section (BENCH_6 onward): one dense trial
	// on the sequential kernel versus the partitioned kernel at 2 and 4
	// stripes, plus (BENCH_7 onward) the 50k-node urban-metro trial.
	Shard []Bench `json:"shard,omitempty"`
	// Fault is the fault-engine section (BENCH_8 onward): one
	// urban-grid-chaos trial pricing the crash/restart/bursty-loss
	// hardening.
	Fault []Bench `json:"fault,omitempty"`

	// Rebaselined lists gated metrics — in the report's display form,
	// "<name> (<unit>)" — whose values this snapshot moved on purpose: a PR
	// changed simulation behavior under a documented contract relaxation,
	// so the delta from the previous snapshot is a baseline reset, not a
	// regression. The trajectory gate skips the incoming comparison for
	// these metrics and resumes gating from this snapshot's value onward;
	// Check ignores them. RebaselineNote says why; both are stamped by
	// `bench-snapshot -rebase`.
	Rebaselined    []string `json:"rebaselined,omitempty"`
	RebaselineNote string   `json:"rebaseline_note,omitempty"`

	// Path records where the snapshot was loaded from (not serialized).
	Path string `json:"-"`
}

// rule is one gate: the largest value a gated metric may reach from its
// previous value, and the rule as the report prints it.
type rule struct {
	text  string
	limit func(prev float64) float64
}

func plusHalf(prev float64) float64 { return prev * 1.5 }

var (
	exact          = &rule{"allocs/op must not grow", func(prev float64) float64 { return prev }}
	plusTwo        = &rule{"allocs/op +2 slack", func(prev float64) float64 { return prev + 2 }}
	benchPlusHalf  = &rule{"allocs/op +50%", plusHalf}
	scenarioAllocs = &rule{"total allocs +50%", plusHalf}
)

// metric is one value a snapshot contributes to the trajectory; gate is
// nil for an informational metric.
type metric struct {
	name, unit string
	value      float64
	gate       *rule
}

// metrics flattens the snapshot through the rule table, in report order.
func (s Snapshot) metrics() []metric {
	var out []metric
	benches := func(list []Bench, gate *rule) {
		for _, b := range list {
			out = append(out,
				metric{b.Name, "allocs/op", float64(b.AllocsPerOp), gate},
				metric{b.Name, "ns/op", b.NsPerOp, nil})
		}
	}
	benches(s.Wire, exact)
	benches(s.Phy, plusTwo)
	benches(s.Kernel, exact)
	for _, sc := range s.Scenarios {
		out = append(out,
			metric{sc.Name, "allocs", float64(sc.Allocs), scenarioAllocs},
			metric{sc.Name, "download_s", sc.DownloadTime90S, nil},
			metric{sc.Name, "tx_p90", sc.Transmissions90, nil})
	}
	benches(s.Shard, benchPlusHalf)
	benches(s.Fault, nil)
	return out
}

// LoadTrajectory reads snapshot files and returns them ordered by issue
// number — the perf trajectory. Duplicate issue numbers are an error (two
// files claiming the same PR make every delta ambiguous).
func LoadTrajectory(paths ...string) ([]Snapshot, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("perf: no snapshot files given")
	}
	snaps := make([]Snapshot, 0, len(paths))
	byIssue := make(map[int]string, len(paths))
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var s Snapshot
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("parse %s: %w", path, err)
		}
		s.Path = path
		if prev, dup := byIssue[s.Issue]; dup {
			return nil, fmt.Errorf("perf: %s and %s both claim issue %d", prev, path, s.Issue)
		}
		byIssue[s.Issue] = path
		snaps = append(snaps, s)
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Issue < snaps[j].Issue })
	return snaps, nil
}

// Breach is one metric that regressed past its threshold between two
// consecutive trajectory points.
type Breach struct {
	Metric    string  `json:"metric"`
	FromIssue int     `json:"from_issue"`
	ToIssue   int     `json:"to_issue"`
	Prev      float64 `json:"prev"`
	Cur       float64 `json:"cur"`
	Limit     float64 `json:"limit"`
	Rule      string  `json:"rule"`
}

// series is one metric's value at each trajectory point (ok flags
// presence).
type series struct {
	metric, unit string
	gate         *rule
	vals         []float64
	ok           []bool
}

func (s series) label() string { return s.metric + " (" + s.unit + ")" }

// trajectory lines the snapshots' metrics up into one series per
// (name, unit), in order of first appearance.
func trajectory(snaps []Snapshot) []series {
	type key struct{ name, unit string }
	idx := map[key]int{}
	var out []series
	for pos, snap := range snaps {
		for _, m := range snap.metrics() {
			k := key{m.name, m.unit}
			i, seen := idx[k]
			if !seen {
				i = len(out)
				idx[k] = i
				out = append(out, series{
					metric: m.name,
					unit:   m.unit,
					gate:   m.gate,
					vals:   make([]float64, len(snaps)),
					ok:     make([]bool, len(snaps)),
				})
			}
			out[i].vals[pos], out[i].ok[pos] = m.value, true
		}
	}
	return out
}

// breaches applies each gated series' rule between consecutive present
// points. A point whose snapshot rebaselined the metric skips its incoming
// comparison (the intentional move) but still becomes the baseline for the
// next point — gating resumes immediately after the reset.
func breaches(snaps []Snapshot, all []series) []Breach {
	var out []Breach
	for _, s := range all {
		if s.gate == nil {
			continue
		}
		last := -1 // previous present point
		for i, snap := range snaps {
			if !s.ok[i] {
				continue
			}
			if last >= 0 && !slices.Contains(snap.Rebaselined, s.label()) {
				if limit := s.gate.limit(s.vals[last]); s.vals[i] > limit {
					out = append(out, Breach{
						Metric:    s.label(),
						FromIssue: snaps[last].Issue,
						ToIssue:   snap.Issue,
						Prev:      s.vals[last],
						Cur:       s.vals[i],
						Limit:     limit,
						Rule:      s.gate.text,
					})
				}
			}
			last = i
		}
	}
	return out
}

// Check applies the rule table to one pair: a fresh measurement against
// the committed snapshot. A bench the committed snapshot lacks has nothing
// to regress against. The fresh snapshot's Rebaselined is ignored — a
// re-measure cannot excuse its own regression.
func Check(committed, fresh Snapshot) []Breach {
	fresh.Rebaselined = nil
	pair := []Snapshot{committed, fresh}
	return breaches(pair, trajectory(pair))
}

// TrajectoryReport renders the loaded trajectory as tables — one row per
// metric, one column per issue, a delta over the whole trajectory, and a
// gate status — plus the list of threshold breaches. Callers emit the
// tables through experiment.EmitTables and decide whether breaches fail
// the run.
func TrajectoryReport(snaps []Snapshot) ([]experiment.Table, []Breach, error) {
	if len(snaps) == 0 {
		return nil, nil, fmt.Errorf("perf: empty trajectory")
	}
	all := trajectory(snaps)
	brs := breaches(snaps, all)
	var breached, rebased, rebaseNotes []string
	for _, b := range brs {
		breached = append(breached, b.Metric)
	}
	for _, s := range snaps {
		rebased = append(rebased, s.Rebaselined...)
		if len(s.Rebaselined) > 0 {
			note := fmt.Sprintf("rebaselined at BENCH_%d: %s", s.Issue, strings.Join(s.Rebaselined, ", "))
			if s.RebaselineNote != "" {
				note += " — " + s.RebaselineNote
			}
			rebaseNotes = append(rebaseNotes, note)
		}
	}

	header := []string{"metric", "unit"}
	for _, s := range snaps {
		header = append(header, fmt.Sprintf("BENCH_%d", s.Issue))
	}
	header = append(header, "delta", "status")

	row := func(s series) []string {
		cells := []string{s.metric, s.unit}
		first, last := -1, -1
		for i, ok := range s.ok {
			if !ok {
				cells = append(cells, "—")
				continue
			}
			cells = append(cells, formatMetric(s.vals[i]))
			if first < 0 {
				first = i
			}
			last = i
		}
		delta := "—"
		if first >= 0 && last > first && s.vals[first] != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(s.vals[last]-s.vals[first])/s.vals[first])
		}
		status := "not gated"
		if s.gate != nil {
			switch {
			case slices.Contains(breached, s.label()):
				status = "REGRESSED"
			case slices.Contains(rebased, s.label()):
				status = "rebaselined"
			case first >= 0 && last > first && s.vals[last] < s.vals[first]:
				status = "improved"
			default:
				status = "ok"
			}
		}
		return append(cells, delta, status)
	}

	benchTable := experiment.Table{
		Title:  fmt.Sprintf("Perf trajectory: micro-benches (%d snapshots)", len(snaps)),
		Note:   "gates: wire/kernel allocs/op exact, phy +2; ns/op informational (moves with hardware)",
		Header: header,
	}
	scenarioTable := experiment.Table{
		Title:  "Perf trajectory: dense scenarios",
		Note:   "gate: total allocs +50%; times and transmissions informational",
		Header: header,
	}
	for _, s := range all {
		if s.unit == "allocs/op" || s.unit == "ns/op" {
			benchTable.Rows = append(benchTable.Rows, row(s))
		} else {
			scenarioTable.Rows = append(scenarioTable.Rows, row(s))
		}
	}

	breachTable := experiment.Table{
		Title:  "Threshold breaches",
		Header: []string{"metric", "from", "to", "prev", "cur", "limit", "rule"},
	}
	if len(brs) == 0 {
		breachTable.Note = "none — every gated metric is within its threshold"
	}
	if len(rebaseNotes) > 0 {
		if breachTable.Note != "" {
			breachTable.Note += "; "
		}
		breachTable.Note += strings.Join(rebaseNotes, "; ")
	}
	for _, b := range brs {
		breachTable.Rows = append(breachTable.Rows, []string{
			b.Metric,
			fmt.Sprintf("BENCH_%d", b.FromIssue),
			fmt.Sprintf("BENCH_%d", b.ToIssue),
			formatMetric(b.Prev),
			formatMetric(b.Cur),
			formatMetric(b.Limit),
			b.Rule,
		})
	}
	return []experiment.Table{benchTable, scenarioTable, breachTable}, brs, nil
}

// formatMetric prints counts as integers and measured values with one
// decimal, keeping the tables scannable.
func formatMetric(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.1f", v)
}
