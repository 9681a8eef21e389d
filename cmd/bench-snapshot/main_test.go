package main

import (
	"encoding/json"
	"reflect"
	"testing"

	"dapes/internal/perf"
)

// TestSnapshotHeaderCompatible loads a snapshot written before the machine
// header carried NumCPU and GOMAXPROCS the way -check reads it (both read
// as zero and are omitted again on write, so old files keep their shape)
// and round-trips a new snapshot that carries them through the encoding
// bench-snapshot writes.
func TestSnapshotHeaderCompatible(t *testing.T) {
	snaps, err := perf.LoadTrajectory("../../BENCH_8.json")
	if err != nil {
		t.Fatal(err)
	}
	old := snaps[0]
	if old.Issue != 8 || old.NumCPU != 0 || old.GOMAXPROCS != 0 || len(old.Scenarios) == 0 {
		t.Fatalf("BENCH_8.json loaded as issue %d, num_cpu %d, gomaxprocs %d, %d scenarios",
			old.Issue, old.NumCPU, old.GOMAXPROCS, len(old.Scenarios))
	}
	var fields map[string]json.RawMessage
	reenc, err := json.MarshalIndent(old, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(reenc, &fields); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"num_cpu", "gomaxprocs"} {
		if _, ok := fields[key]; ok {
			t.Fatalf("re-encoded old snapshot gained %q", key)
		}
	}

	cur := old
	cur.Path = ""
	cur.Issue, cur.NumCPU, cur.GOMAXPROCS = 9, 16, 4
	enc, err := json.MarshalIndent(cur, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back perf.Snapshot
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, cur) {
		t.Fatalf("round trip changed the snapshot:\n got  %+v\n want %+v", back, cur)
	}
}
