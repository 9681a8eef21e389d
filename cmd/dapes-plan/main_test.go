package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestReportGolden pins `dapes-plan report -fail-on-breach` over every
// committed BENCH_*.json snapshot, byte for byte, in each output format:
// the committed trajectory is clean, so the command succeeds, and the
// rendered series, deltas, gate statuses and rebaseline notes match
// testdata/report.{txt,json,csv}. A change that moves the report on
// purpose regenerates a golden from the repo root with
// `go run ./cmd/dapes-plan report -format json > cmd/dapes-plan/testdata/report.json`
// (likewise csv, and text into report.txt).
func TestReportGolden(t *testing.T) {
	snaps, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no committed snapshots: %v", err)
	}
	for _, f := range []struct{ format, golden string }{{"text", "report.txt"}, {"json", "report.json"}, {"csv", "report.csv"}} {
		format, golden := f.format, f.golden
		out := filepath.Join(t.TempDir(), golden)
		args := append([]string{"report", "-format", format, "-o", out, "-fail-on-breach"}, snaps...)
		if err := run(args); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s report differs from testdata/%s:\n%s", format, golden, got)
		}
	}
}
