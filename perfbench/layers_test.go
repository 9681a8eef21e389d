package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestEveryReachedPackageHasALayer fails when a dapes/internal package the
// benchmark links has no layer and is not listed as unlayered, or when a
// file of a split package is missing from fileLayers, so a new module or
// file cannot vanish into "other".
func TestEveryReachedPackageHasALayer(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "-f", `{{.ImportPath}} {{join .GoFiles ","}}`, ".").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	reached := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, files, _ := strings.Cut(line, " ")
		pkg, ok := strings.CutPrefix(path, modulePrefix)
		if !ok {
			continue
		}
		reached[pkg] = true
		if _, ok := unlayered[pkg]; ok {
			continue
		}
		split, isSplit := fileLayers[pkg]
		if !isSplit {
			if l, ok := packageLayers[pkg]; !ok || !slices.Contains(layers, l) {
				t.Errorf("package %s has no layer: add it to packageLayers or unlayered", pkg)
			}
			continue
		}
		for _, f := range strings.Split(files, ",") {
			if l, ok := split[f]; !ok || !slices.Contains(layers, l) {
				t.Errorf("file %s/%s has no layer in fileLayers", pkg, f)
			}
		}
	}
	for pkg := range unlayered {
		if !reached[pkg] {
			t.Errorf("unlayered package %s is no longer linked; remove it", pkg)
		}
	}
	for pkg := range packageLayers {
		if !reached[pkg] {
			t.Errorf("packageLayers names %s, which the benchmark does not link", pkg)
		}
	}
	for pkg := range fileLayers {
		if !reached[pkg] {
			t.Errorf("fileLayers names %s, which the benchmark does not link", pkg)
		}
	}
}

func TestLayerOfRules(t *testing.T) {
	fr := func(fn, file string) frame { return frame{fn: fn, file: file} }
	const in = "/src/internal/"
	kernel := fr("dapes/internal/sim.(*Kernel).RunUntil", in+"sim/sim.go")
	trial := fr("dapes/internal/experiment.runSequentialDAPESTrial", in+"experiment/dapes.go")
	pred := fr("dapes/internal/experiment.runSequentialDAPESTrial.func2", in+"experiment/dapes.go")
	cases := []struct {
		name   string
		frames []frame
		want   string
	}{
		{"mark assist under a module is gc",
			[]frame{fr("runtime.scanobject", ""), fr("runtime.gcAssistAlloc", ""), fr("runtime.mallocgc", ""),
				fr("dapes/internal/ndn.Name.String", in+"ndn/name.go"), pred, kernel, trial}, "gc"},
		{"background mark worker is gc",
			[]frame{fr("runtime.gcDrain", ""), fr("runtime.gcBgMarkWorker.func2", ""), fr("runtime.goexit", "")}, "gc"},
		{"module code under the stop predicate is the predicate",
			[]frame{fr("runtime.mapaccess2_faststr", ""), fr("dapes/internal/core.(*Peer).Done", in+"core/peer.go"),
				pred, kernel, trial}, "experiment.predicate"},
		{"sharded predicate",
			[]frame{fr("dapes/internal/experiment.RunShardedDAPESTrial.func2", in+"experiment/sharded.go"),
				fr("dapes/internal/sim.(*ShardedKernel).RunUntil", in+"sim/shard.go")}, "experiment.predicate"},
		{"result collection",
			[]frame{fr("dapes/internal/core.(*Peer).MemoryFootprint", in+"core/peer.go"),
				fr("dapes/internal/experiment.collectDAPES", in+"experiment/dapes.go"), trial}, "experiment.collect"},
		{"runtime helper counts toward its caller",
			[]frame{fr("runtime.growslice", ""), fr("dapes/internal/rpf.(*Planner).Next", in+"rpf/rpf.go"),
				fr("dapes/internal/core.(*Peer).fetch", in+"core/fetch.go"), kernel, trial}, "rpf"},
		{"event handler under the kernel is its module",
			[]frame{fr("dapes/internal/phy.(*Medium).complete", in+"phy/phy.go"), kernel, trial}, "phy"},
		{"split package by file",
			[]frame{fr("dapes/internal/geo.(*Grid).QueryRange", in+"geo/grid.go"),
				fr("dapes/internal/phy.(*Medium).Broadcast", in+"phy/phy.go")}, "geo.grid"},
		{"sharded window code",
			[]frame{fr("dapes/internal/sim.(*ShardedKernel).runWindow", in+"sim/shard.go")}, "sim.shard"},
		{"loss model is fault injection",
			[]frame{fr("dapes/internal/phy.(*GilbertElliott).Drop", in+"phy/loss.go"),
				fr("dapes/internal/phy.(*Medium).complete", in+"phy/phy.go")}, "fault"},
		{"trial construction",
			[]frame{fr("dapes/internal/experiment.buildTopology", in+"experiment/topology.go"), trial}, "experiment.setup"},
		{"unlayered package", []frame{fr("dapes/internal/bithoc.(*Peer).Start", in+"bithoc/bithoc.go")}, "other"},
		{"no module frame", []frame{fr("runtime.findRunnable", ""), fr("runtime.schedule", "")}, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's workloads and
// metrics identical to the ones the program runs and prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, program prints %d", len(got), kind, len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], program %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
