package main

import (
	"path"
	"strings"
)

// The layer ledger folds every CPU-profile sample into one module layer.
// Every layer inside a trial is entered through kernel callbacks the
// benchmark cannot wrap, so the ledger is built from a sampled profile,
// not from spans. The rules, in order:
//
//  1. A stack holding a GC worker, assist, sweep or phase-change frame is
//     "gc", whatever called it.
//  2. A stack passing through the trial's stop predicate — a frame of the
//     experiment package called directly by the sim kernel, which calls
//     back into the harness only for its RunUntil condition — is
//     "experiment.predicate", including the module code it calls
//     (core.Peer.Done, ndn.Name.String).
//  3. A stack passing through result collection is "experiment.collect".
//  4. Otherwise the innermost dapes/internal frame names the layer, so
//     runtime helpers (map access, malloc, growslice) count toward the
//     module that called them.
//  5. A stack with no dapes/internal frame is "other".

// modulePrefix is the import-path prefix of the repository's packages.
const modulePrefix = "dapes/internal/"

// layers are the ledger's layers in report order.
var layers = []string{
	"sim", "sim.shard", "phy", "geo.grid", "geo.mobility",
	"core", "rpf", "bitmap", "peba", "multihop", "nfd", "ndn", "metadata", "fault",
	"experiment.setup", "experiment.predicate", "experiment.collect",
	"gc", "other",
}

// packageLayers gives the layer of every dapes/internal package the
// workloads reach whose files all belong to one layer.
var packageLayers = map[string]string{
	"core":     "core",
	"rpf":      "rpf",
	"bitmap":   "bitmap",
	"peba":     "peba",
	"multihop": "multihop",
	"nfd":      "nfd",
	"ndn":      "ndn",
	"metadata": "metadata",
	// Collection integrity: per-packet digests and Merkle roots are built
	// with the collection, and signing keys belong to the same step.
	"merkle": "metadata",
	"keys":   "metadata",
	"fault":  "fault",
	// Trial construction: topology, collection, peers, the serial runner.
	// Predicate and collection frames are caught by rules 2 and 3 first.
	"experiment": "experiment.setup",
}

// fileLayers splits the packages whose files belong to different layers.
// Every non-test file of such a package must be listed (layers_test.go
// checks), so a new file cannot fall silently into "other".
var fileLayers = map[string]map[string]string{
	"sim": {
		"sim.go":   "sim",
		"queue.go": "sim",
		"timer.go": "sim",
		"wheel.go": "sim",
		"shard.go": "sim.shard",
	},
	"phy": {
		"phy.go": "phy",
		// The bursty loss models and the jammer a fault plan installs.
		"loss.go":    "fault",
		"sharded.go": "sim.shard",
	},
	"geo": {
		"geo.go":   "geo.mobility",
		"grid.go":  "geo.grid",
		"shard.go": "sim.shard",
	},
}

// unlayered are the dapes/internal packages linked into the benchmark that
// none of its workloads executes, with the reason. A sample landing in one
// of them counts as "other".
var unlayered = map[string]string{
	"routing":   "Bithoc/Ekta comparator stack; no open item optimises it",
	"transport": "Bithoc/Ekta comparator stack; no open item optimises it",
	"dht":       "Bithoc/Ekta comparator stack; no open item optimises it",
	"bithoc":    "Bithoc/Ekta comparator stack; no open item optimises it",
	"ekta":      "Bithoc/Ekta comparator stack; no open item optimises it",
	"repo":      "Table-I repository scenario only; no DAPES trial workload runs it",
}

// collectFuncs are the experiment functions that fold finished trials into
// results.
var collectFuncs = []string{"collectDAPES", "chaosStats", "aggregate", "percentile90"}

// gcFuncs are the runtime functions whose presence anywhere in a stack
// makes the sample GC work: background mark workers, mark assists, the
// write-barrier buffer flush, sweeping, scavenging and phase changes.
var gcFuncs = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
	"runtime.wbBufFlush", "runtime.bgsweep", "runtime.sweepone",
	"runtime.bgscavenge", "runtime.markroot", "runtime.scanobject",
}

// splitFunc returns the dapes/internal package of a qualified function
// name and the rest of the name, or ok=false for any other function.
func splitFunc(fn string) (pkg, rest string, ok bool) {
	s, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return "", "", false
	}
	pkg, rest, ok = strings.Cut(s, ".")
	return pkg, rest, ok
}

// moduleLayer returns the layer of a dapes/internal frame, or "" when its
// package (or file) has none.
func moduleLayer(pkg, file string) string {
	if files, ok := fileLayers[pkg]; ok {
		return files[path.Base(file)]
	}
	return packageLayers[pkg]
}

// layerOf folds one stack, innermost frame first, into its layer.
func layerOf(frames []frame) string {
	for _, f := range frames {
		for _, g := range gcFuncs {
			if f.fn == g || strings.HasPrefix(f.fn, g+".") {
				return "gc"
			}
		}
	}
	for i, f := range frames {
		pkg, rest, ok := splitFunc(f.fn)
		if !ok || pkg != "experiment" {
			continue
		}
		if i+1 < len(frames) {
			if caller, _, ok := splitFunc(frames[i+1].fn); ok && caller == "sim" {
				return "experiment.predicate"
			}
		}
		for _, c := range collectFuncs {
			if rest == c || strings.HasPrefix(rest, c+".") {
				return "experiment.collect"
			}
		}
	}
	for _, f := range frames {
		if pkg, _, ok := splitFunc(f.fn); ok {
			if l := moduleLayer(pkg, f.file); l != "" {
				return l
			}
			return "other"
		}
	}
	return "other"
}

// ledger is the CPU time of each layer over a set of samples.
type ledger map[string]int64

func (l ledger) add(samples []stackSample) {
	for _, s := range samples {
		l[layerOf(s.frames)] += s.cpuNS
	}
}

func (l ledger) total() int64 {
	var t int64
	for _, ns := range l {
		t += ns
	}
	return t
}
