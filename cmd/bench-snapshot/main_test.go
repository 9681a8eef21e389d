package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestSnapshotHeaderCompatible loads a snapshot written before the machine
// header carried NumCPU and GOMAXPROCS (both read as zero and are omitted
// again on write, so old files keep their shape) and round-trips a new
// snapshot that carries them.
func TestSnapshotHeaderCompatible(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_8.json")
	if err != nil {
		t.Fatal(err)
	}
	var old Snapshot
	if err := json.Unmarshal(raw, &old); err != nil {
		t.Fatal(err)
	}
	if old.Issue != 8 || old.NumCPU != 0 || old.GOMAXPROCS != 0 || len(old.Scenarios) == 0 {
		t.Fatalf("BENCH_8.json loaded as issue %d, num_cpu %d, gomaxprocs %d, %d scenarios",
			old.Issue, old.NumCPU, old.GOMAXPROCS, len(old.Scenarios))
	}
	var fields map[string]json.RawMessage
	reenc, err := json.Marshal(old)
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
	cur.Issue, cur.NumCPU, cur.GOMAXPROCS = 9, 16, 4
	enc, err := json.Marshal(cur)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, cur) {
		t.Fatalf("round trip changed the snapshot:\n got  %+v\n want %+v", back, cur)
	}
}
