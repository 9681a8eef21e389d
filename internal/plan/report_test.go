package plan

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dapes/internal/experiment"
)

func writeSnapshot(t *testing.T, dir string, s Snapshot) string {
	t.Helper()
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "BENCH_"+strings.ReplaceAll(t.Name(), "/", "_")+string(rune('0'+s.Issue))+".json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func snapPair() (Snapshot, Snapshot) {
	prev := Snapshot{
		Issue:  4,
		Wire:   []BenchPoint{{Name: "wire/decode-once", NsPerOp: 330, AllocsPerOp: 7}},
		Phy:    []BenchPoint{{Name: "phy/broadcast", NsPerOp: 4300, AllocsPerOp: 6}},
		Kernel: nil, // section appears in the later snapshot only
		Scenarios: []ScenarioPoint{
			{Name: "urban-grid", DownloadTime90S: 58.8, Transmissions90: 2761, Allocs: 141808},
		},
	}
	cur := Snapshot{
		Issue:  5,
		Wire:   []BenchPoint{{Name: "wire/decode-once", NsPerOp: 332, AllocsPerOp: 7}},
		Phy:    []BenchPoint{{Name: "phy/broadcast", NsPerOp: 4200, AllocsPerOp: 6}},
		Kernel: []BenchPoint{{Name: "kernel/timer-reset", NsPerOp: 12, AllocsPerOp: 0}},
		Scenarios: []ScenarioPoint{
			{Name: "urban-grid", DownloadTime90S: 58.8, Transmissions90: 2761, Allocs: 137264},
		},
	}
	return prev, cur
}

func TestTrajectoryReportCleanRun(t *testing.T) {
	t.Parallel()
	prev, cur := snapPair()
	dir := t.TempDir()
	// Load in reverse order: LoadTrajectory must sort by issue.
	snaps, err := LoadTrajectory(writeSnapshot(t, dir, cur), writeSnapshot(t, dir, prev))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 || snaps[0].Issue != 4 || snaps[1].Issue != 5 {
		t.Fatalf("trajectory not ordered by issue: %+v", snaps)
	}
	tables, brs, err := TrajectoryReport(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if len(brs) != 0 {
		t.Fatalf("clean trajectory reported breaches: %+v", brs)
	}
	if len(tables) != 3 {
		t.Fatalf("tables = %d, want benches + scenarios + breaches", len(tables))
	}
	text := tables[0].String() + tables[1].String() + tables[2].String()
	for _, want := range []string{"BENCH_4", "BENCH_5", "wire/decode-once", "urban-grid", "improved", "none"} {
		if !strings.Contains(text, want) {
			t.Fatalf("report missing %q:\n%s", want, text)
		}
	}
	// The kernel metric exists only at BENCH_5: earlier column renders as
	// absent, and a single point can never breach.
	if !strings.Contains(text, "kernel/timer-reset") || !strings.Contains(text, "—") {
		t.Fatalf("new-metric handling missing:\n%s", text)
	}
}

func TestTrajectoryReportFlagsBreaches(t *testing.T) {
	t.Parallel()
	prev, cur := snapPair()
	cur.Wire[0].AllocsPerOp = 9       // wire gate is exact: 7 -> 9 breaches
	cur.Phy[0].AllocsPerOp = 8        // phy gate has +2 slack: 6 -> 8 is the limit, ok
	cur.Scenarios[0].Allocs = 300_000 // +50% gate: limit 212712, breaches
	dir := t.TempDir()
	snaps, err := LoadTrajectory(writeSnapshot(t, dir, prev), writeSnapshot(t, dir, cur))
	if err != nil {
		t.Fatal(err)
	}
	tables, brs, err := TrajectoryReport(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if len(brs) != 2 {
		t.Fatalf("breaches = %+v, want wire + scenario", brs)
	}
	byMetric := map[string]Breach{}
	for _, b := range brs {
		byMetric[b.Metric] = b
	}
	if b, ok := byMetric["wire/decode-once (allocs/op)"]; !ok || b.Prev != 7 || b.Cur != 9 || b.Limit != 7 {
		t.Fatalf("wire breach wrong: %+v", brs)
	}
	if b, ok := byMetric["urban-grid (allocs)"]; !ok || b.Limit != 141808*1.5 {
		t.Fatalf("scenario breach wrong: %+v", brs)
	}
	text := tables[0].String() + tables[2].String()
	if !strings.Contains(text, "REGRESSED") {
		t.Fatalf("report does not flag the regression:\n%s", text)
	}
	// Phy stayed within its +2 slack.
	for _, b := range brs {
		if strings.HasPrefix(b.Metric, "phy/") {
			t.Fatalf("phy slack not honored: %+v", b)
		}
	}
}

// TestTrajectoryReportHonorsRebaseline pins the intentional-move escape
// hatch: a snapshot that lists a gated metric in `rebaselined` suppresses
// the incoming breach (the delta is a documented behavior change), surfaces
// the reset in the report instead of an "ok", and still gates the very next
// transition from the new baseline — a rebaseline is a reset, not a
// permanent exemption.
func TestTrajectoryReportHonorsRebaseline(t *testing.T) {
	t.Parallel()
	prev, cur := snapPair()
	cur.Scenarios[0].Allocs = 300_000 // past the +50% limit of 212 712
	cur.Rebaselined = []string{"urban-grid (allocs)"}
	cur.RebaselineNote = "intentional behavior change"
	next := Snapshot{
		Issue: 6,
		Scenarios: []ScenarioPoint{
			// 20% above the rebaselined value: within the resumed gate.
			{Name: "urban-grid", DownloadTime90S: 58.8, Transmissions90: 2761, Allocs: 360_000},
		},
	}
	dir := t.TempDir()
	snaps, err := LoadTrajectory(writeSnapshot(t, dir, prev), writeSnapshot(t, dir, cur), writeSnapshot(t, dir, next))
	if err != nil {
		t.Fatal(err)
	}
	tables, brs, err := TrajectoryReport(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if len(brs) != 0 {
		t.Fatalf("rebaselined move still breached: %+v", brs)
	}
	text := tables[1].String() + tables[2].String()
	for _, want := range []string{"rebaselined", "intentional behavior change", "BENCH_5"} {
		if !strings.Contains(text, want) {
			t.Fatalf("report does not surface the rebaseline (%q missing):\n%s", want, text)
		}
	}

	// Gating resumes from the new baseline: a breach after the reset fires.
	next.Scenarios[0].Allocs = 500_000 // 300k * 1.5 = 450k limit
	snaps[2] = next
	_, brs, err = TrajectoryReport(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if len(brs) != 1 || brs[0].Metric != "urban-grid (allocs)" || brs[0].Prev != 300_000 {
		t.Fatalf("post-rebaseline gate not resumed: %+v", brs)
	}
}

func TestTrajectoryRejectsDuplicateIssues(t *testing.T) {
	t.Parallel()
	prev, _ := snapPair()
	dir := t.TempDir()
	a := writeSnapshot(t, filepath.Join(dir), prev)
	bdir := filepath.Join(dir, "b")
	if err := os.MkdirAll(bdir, 0o755); err != nil {
		t.Fatal(err)
	}
	b := writeSnapshot(t, bdir, prev)
	if _, err := LoadTrajectory(a, b); err == nil || !strings.Contains(err.Error(), "issue 4") {
		t.Fatalf("duplicate issues accepted: %v", err)
	}
	if _, err := LoadTrajectory(); err == nil {
		t.Fatal("empty path list accepted")
	}
	if _, err := LoadTrajectory(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrajectory(bad); err == nil {
		t.Fatal("malformed snapshot accepted")
	}
}

// TestCommittedTrajectoryIsClean pins the acceptance criterion on the real
// artifacts: the checked-in BENCH_4 -> BENCH_7 trajectory renders and no
// gated metric regressed past its threshold (BENCH_7's documented
// rebaselines — the frame-start cross-stripe delivery change — count as
// baseline resets, not regressions).
func TestCommittedTrajectoryIsClean(t *testing.T) {
	t.Parallel()
	snaps, err := LoadTrajectory("../../BENCH_4.json", "../../BENCH_5.json", "../../BENCH_6.json", "../../BENCH_7.json")
	if err != nil {
		t.Fatal(err)
	}
	tables, brs, err := TrajectoryReport(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if len(brs) != 0 {
		t.Fatalf("committed trajectory has breaches: %+v", brs)
	}
	var buf strings.Builder
	if err := experiment.EmitTables(&buf, experiment.FormatText, tables...); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"BENCH_4", "BENCH_7", "urban-grid-xl", "improved", "shard/urban-metro-trial", "rebaselined"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("committed-trajectory report missing %q:\n%s", want, buf.String())
		}
	}
}

// TestSnapshotMachineHeaderRoundTrips pins the machine header: a committed
// snapshot from before NumCPU/GOMAXPROCS were recorded still loads (both
// read as zero), and a snapshot carrying them writes and reloads them
// unchanged.
func TestSnapshotMachineHeaderRoundTrips(t *testing.T) {
	t.Parallel()
	old, err := LoadTrajectory("../../BENCH_8.json")
	if err != nil {
		t.Fatal(err)
	}
	if old[0].Issue != 8 || old[0].NumCPU != 0 || old[0].GOMAXPROCS != 0 || len(old[0].Scenarios) == 0 {
		t.Fatalf("BENCH_8.json loaded as issue %d, num_cpu %d, gomaxprocs %d, %d scenarios",
			old[0].Issue, old[0].NumCPU, old[0].GOMAXPROCS, len(old[0].Scenarios))
	}
	cur := old[0]
	cur.Issue, cur.NumCPU, cur.GOMAXPROCS = 9, 16, 4
	path := writeSnapshot(t, t.TempDir(), cur)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"num_cpu":16`, `"gomaxprocs":4`} {
		if !strings.Contains(string(raw), key) {
			t.Fatalf("written snapshot lacks %s", key)
		}
	}
	back, err := LoadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if back[0].NumCPU != 16 || back[0].GOMAXPROCS != 4 || len(back[0].Scenarios) != len(cur.Scenarios) {
		t.Fatalf("round trip: num_cpu %d, gomaxprocs %d, %d scenarios", back[0].NumCPU, back[0].GOMAXPROCS, len(back[0].Scenarios))
	}
}
