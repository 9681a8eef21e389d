package plan

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"dapes/internal/experiment"
)

// This file turns the repo's perf trajectory — the BENCH_<n>.json
// snapshots cmd/bench-snapshot freezes per PR — into a first-class
// artifact: a loaded, ordered series per metric with deltas and threshold
// breaches, rendered through the shared emit layer. The thresholds mirror
// the bench-check CI gate exactly: wire and kernel allocs/op may not grow
// at all, the phy broadcast bench gets +2 of slack, a scenario's total
// allocation count and a shard trial's allocs/op may drift up to +50%,
// and times never gate (they move with hardware).

// BenchPoint mirrors one bench entry of a BENCH_*.json snapshot.
type BenchPoint struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// ScenarioPoint mirrors one dense-scenario entry of a snapshot.
type ScenarioPoint struct {
	Name            string  `json:"name"`
	DownloadTime90S float64 `json:"download_time_90_s"`
	Transmissions90 float64 `json:"transmissions_90"`
	Allocs          uint64  `json:"allocs"`
	Bytes           uint64  `json:"alloc_bytes"`
}

// Snapshot mirrors one BENCH_<n>.json document.
type Snapshot struct {
	Issue     int    `json:"issue"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// NumCPU and GOMAXPROCS record the measuring machine; zero in
	// snapshots written before they were recorded.
	NumCPU     int             `json:"num_cpu,omitempty"`
	GOMAXPROCS int             `json:"gomaxprocs,omitempty"`
	Wire       []BenchPoint    `json:"wire"`
	Phy        []BenchPoint    `json:"phy"`
	Kernel     []BenchPoint    `json:"kernel"`
	Scenarios  []ScenarioPoint `json:"scenarios"`
	// Shard is the shard-scaling section (BENCH_6 onward): one dense trial
	// on the sequential kernel versus the partitioned kernel at 2 and 4
	// stripes, plus (BENCH_7 onward) the 50k-node urban-metro trial. Trial
	// times move with hardware and core count and never gate; whole-trial
	// allocs/op gate at a relative +50%, like the dense scenarios.
	Shard []BenchPoint `json:"shard,omitempty"`
	// Fault is the fault-engine section (BENCH_8 onward): one
	// urban-grid-chaos trial pricing the crash/restart/bursty-loss
	// hardening. Entirely informational — chaos trials re-fetch after cold
	// restarts by design, so neither allocs nor times gate.
	Fault []BenchPoint `json:"fault,omitempty"`

	// Rebaselined lists gated metrics — in the report's display form,
	// "<name> (<unit>)" — whose values this snapshot moved on purpose: a PR
	// changed simulation behavior under a documented contract relaxation,
	// so the delta from the previous snapshot is a baseline reset, not a
	// regression. The trajectory gate skips the incoming comparison for
	// these metrics and resumes gating from this snapshot's value onward.
	// RebaselineNote says why; both are stamped by `bench-snapshot -rebase`
	// (see the Makefile's bench-json target for the current list).
	Rebaselined    []string `json:"rebaselined,omitempty"`
	RebaselineNote string   `json:"rebaseline_note,omitempty"`

	// Path records where the snapshot was loaded from (not serialized).
	Path string `json:"-"`
}

// LoadTrajectory reads snapshot files and returns them ordered by issue
// number — the perf trajectory. Duplicate issue numbers are an error (two
// files claiming the same PR make every delta ambiguous).
func LoadTrajectory(paths ...string) ([]Snapshot, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("plan: no snapshot files given")
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
			return nil, fmt.Errorf("plan: %s and %s both claim issue %d", prev, path, s.Issue)
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

// series is one metric's value at each trajectory point (NaN-free: ok
// flags absence).
type series struct {
	metric string
	unit   string
	vals   []float64
	ok     []bool
	// gate computes the regression limit from the previous value; nil
	// means the metric is informational (times).
	gate func(prev float64) float64
	rule string
}

// trajectorySeries flattens the snapshots into named series. Bench
// sections contribute allocs/op (gated) and ns/op (informational);
// scenarios contribute total allocs (gated +50%), download time, and
// transmissions (informational).
func trajectorySeries(snaps []Snapshot) []series {
	type key struct{ section, name, unit string }
	idx := map[key]int{}
	var out []series

	add := func(k key, pos int, v float64, gate func(float64) float64, rule string) {
		i, seen := idx[k]
		if !seen {
			i = len(out)
			idx[k] = i
			out = append(out, series{
				metric: k.name,
				unit:   k.unit,
				vals:   make([]float64, len(snaps)),
				ok:     make([]bool, len(snaps)),
				gate:   gate,
				rule:   rule,
			})
		}
		out[i].vals[pos] = v
		out[i].ok[pos] = true
	}

	exact := func(prev float64) float64 { return prev }
	plusTwo := func(prev float64) float64 { return prev + 2 }
	plusHalf := func(prev float64) float64 { return prev * 1.5 }

	for pos, snap := range snaps {
		sections := []struct {
			benches []BenchPoint
			gate    func(float64) float64
			rule    string
		}{
			{snap.Wire, exact, "allocs/op must not grow"},
			{snap.Phy, plusTwo, "allocs/op +2 slack"},
			{snap.Kernel, exact, "allocs/op must not grow"},
		}
		for _, sec := range sections {
			for _, b := range sec.benches {
				add(key{"bench", b.Name, "allocs/op"}, pos, float64(b.AllocsPerOp), sec.gate, sec.rule)
				add(key{"bench", b.Name, "ns/op"}, pos, b.NsPerOp, nil, "")
			}
		}
		for _, sc := range snap.Scenarios {
			add(key{"scenario", sc.Name, "allocs"}, pos, float64(sc.Allocs), plusHalf, "total allocs +50%")
			add(key{"scenario", sc.Name, "download_s"}, pos, sc.DownloadTime90S, nil, "")
			add(key{"scenario", sc.Name, "tx_p90"}, pos, sc.Transmissions90, nil, "")
		}
		// Shard scaling: trial wall-clock is informational (it moves with
		// hardware and cores); whole-trial allocs/op gate relatively, like
		// the dense scenarios, mirroring bench-snapshot's -check rule.
		for _, b := range snap.Shard {
			add(key{"bench", b.Name, "allocs/op"}, pos, float64(b.AllocsPerOp), plusHalf, "allocs/op +50%")
			add(key{"bench", b.Name, "ns/op"}, pos, b.NsPerOp, nil, "")
		}
		// Fault injection: entirely informational (see Snapshot.Fault) —
		// the chaos trial's work load is a deliberate design choice, not a
		// perf surface.
		for _, b := range snap.Fault {
			add(key{"bench", b.Name, "allocs/op"}, pos, float64(b.AllocsPerOp), nil, "")
			add(key{"bench", b.Name, "ns/op"}, pos, b.NsPerOp, nil, "")
		}
	}
	return out
}

// breaches applies each gated series' rule between consecutive present
// points. A point whose snapshot rebaselined the metric skips its incoming
// comparison (the intentional move) but still becomes the baseline for the
// next point — gating resumes immediately after the reset.
func breaches(snaps []Snapshot, all []series) []Breach {
	rebased := make([]map[string]bool, len(snaps))
	for i, snap := range snaps {
		if len(snap.Rebaselined) == 0 {
			continue
		}
		rebased[i] = make(map[string]bool, len(snap.Rebaselined))
		for _, m := range snap.Rebaselined {
			rebased[i][m] = true
		}
	}
	var out []Breach
	for _, s := range all {
		if s.gate == nil {
			continue
		}
		last := -1 // previous present point
		for i := range snaps {
			if !s.ok[i] {
				continue
			}
			if last >= 0 && !rebased[i][s.metric+" ("+s.unit+")"] {
				limit := s.gate(s.vals[last])
				if s.vals[i] > limit {
					out = append(out, Breach{
						Metric:    s.metric + " (" + s.unit + ")",
						FromIssue: snaps[last].Issue,
						ToIssue:   snaps[i].Issue,
						Prev:      s.vals[last],
						Cur:       s.vals[i],
						Limit:     limit,
						Rule:      s.rule,
					})
				}
			}
			last = i
		}
	}
	return out
}

// TrajectoryReport renders the loaded trajectory as tables — one row per
// metric, one column per issue, a delta over the whole trajectory, and a
// gate status — plus the list of threshold breaches. Callers emit the
// tables through experiment.EmitTables and decide whether breaches fail
// the run.
func TrajectoryReport(snaps []Snapshot) ([]experiment.Table, []Breach, error) {
	if len(snaps) == 0 {
		return nil, nil, fmt.Errorf("plan: empty trajectory")
	}
	all := trajectorySeries(snaps)
	brs := breaches(snaps, all)
	breached := make(map[string]bool, len(brs))
	for _, b := range brs {
		breached[b.Metric] = true
	}
	rebased := make(map[string]bool)
	var rebaseNotes []string
	for _, s := range snaps {
		for _, m := range s.Rebaselined {
			rebased[m] = true
		}
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
			case breached[s.metric+" ("+s.unit+")"]:
				status = "REGRESSED"
			case rebased[s.metric+" ("+s.unit+")"]:
				status = "rebaselined"
			case first >= 0 && last > first && s.vals[last] < s.vals[first]:
				status = "improved"
			default:
				status = "ok"
			}
		}
		return append(cells, delta, status)
	}

	var benchTable, scenarioTable experiment.Table
	benchTable = experiment.Table{
		Title:  fmt.Sprintf("Perf trajectory: micro-benches (%d snapshots)", len(snaps)),
		Note:   "gates: wire/kernel allocs/op exact, phy +2; ns/op informational (moves with hardware)",
		Header: header,
	}
	scenarioTable = experiment.Table{
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
