package main

import (
	"time"

	"dapes/internal/experiment"
)

// wifiRange is the radio range every workload runs at, in meters.
const wifiRange = 60.0

// workload is one named input set: a registered scenario, the scale it runs
// at, and how many trials one pass of it runs. README.md gives the reason
// each workload exists and which layers it is meant to load.
type workload struct {
	name     string
	scenario string
	trials   int
	// shards is the stripe count the scale requests; 0 runs the scenario's
	// sequential kernel.
	shards int
	scale  func(s *experiment.Scale)
}

// workloads are the benchmark's input sets, in the order "all" runs them.
// Each pass runs enough trials that the per-seed variation of a trial's
// cost averages out (README.md gives the measured spreads).
var workloads = []workload{
	{
		name:     "paper-fig7",
		scenario: "fig7-dapes",
		trials:   38,
		scale: func(s *experiment.Scale) {
			s.NumFiles, s.PacketsPerFile, s.PacketSize = 10, 50, 1000
		},
	},
	{
		name:     "urban-chaos",
		scenario: "urban-grid-chaos",
		trials:   4,
		scale:    chaosScale,
	},
	{
		name:     "chaos-sharded",
		scenario: "urban-grid-chaos",
		trials:   4,
		shards:   2,
		scale:    chaosScale,
	},
}

func chaosScale(s *experiment.Scale) {
	s.NumFiles, s.PacketsPerFile, s.PacketSize = 4, 10, 1000
	s.Horizon = 5 * time.Minute
}

// Scale returns the workload's scale for a base seed: the repository's
// reduced scale (the paper's node mix at 10% loss) resized by the workload,
// with trials run serially.
func (w workload) Scale(seed int64) experiment.Scale {
	s := experiment.ReducedScale()
	s.Ranges = []float64{wifiRange}
	s.Trials = w.trials
	s.Workers = 1
	s.BaseSeed = seed
	s.Shards = w.shards
	w.scale(&s)
	return s
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
