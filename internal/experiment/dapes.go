package experiment

import (
	"sync/atomic"
	"time"

	"dapes/internal/core"
	"dapes/internal/fault"
	"dapes/internal/geo"
	"dapes/internal/multihop"
	"dapes/internal/ndn"
)

// DAPESOptions selects the design variant under test; the zero value is the
// paper's default configuration (local-neighborhood RPF, random start,
// interleaved advertisements, PEBA on, multi-hop at 20%).
type DAPESOptions struct {
	Strategy      core.StrategyKind
	RandomStart   bool
	AdvertMode    core.AdvertMode
	BitmapsBefore int
	UsePEBA       bool
	Multihop      bool
	ForwardProb   float64
}

// PaperDefaults returns the configuration Section VI-B describes.
func PaperDefaults() DAPESOptions {
	return DAPESOptions{
		Strategy:    core.LocalNeighborhoodRPF,
		RandomStart: true,
		AdvertMode:  core.Interleaved,
		UsePEBA:     true,
		Multihop:    true,
		ForwardProb: 0.2,
	}
}

func (o DAPESOptions) coreConfig() core.Config {
	return core.Config{
		AdvertMode:    o.AdvertMode,
		BitmapsBefore: o.BitmapsBefore,
		Strategy:      o.Strategy,
		RandomStart:   o.RandomStart,
		UsePEBA:       o.UsePEBA,
		Multihop:      o.Multihop,
		ForwardProb:   o.ForwardProb,
	}
}

// RunDAPESTrial executes one Fig.-7 trial of the DAPES stack on
// Scale.Shards stripes (0 means one) under the conservative lookahead and
// returns its metrics.
func RunDAPESTrial(s Scale, wifiRange float64, trial int, opts DAPESOptions) (TrialResult, error) {
	return runDAPESTrial(s, wifiRange, trial, opts, 0)
}

// runDAPESTrial is the one DAPES trial body. The world is cut into
// max(Scale.Shards, 1) density-balanced stripes advancing in lookahead
// windows (non-positive selects phy.Config.ConservativeLookahead, under
// which no in-flight frame can span a window edge). One stripe is the
// sequential simulation.
//
// With more than one stripe the global-trace contract is relaxed,
// deliberately and deterministically:
//
//   - each stripe's kernel draws from its own seeded RNG stream
//     (sim.ShardSeed), so jitter draws differ from the one-stripe schedule;
//   - cross-stripe broadcasts register at the next window barrier, so a
//     reception completing earlier in the same window cannot collide with
//     them, and a relaxed (larger) lookahead delays cross-stripe delivery
//     by up to one window;
//   - PEBA overhearing-based suppression sees only same-stripe traffic
//     between barriers.
//
// The whole schedule remains a pure function of (BaseSeed, trial, shards,
// lookahead): serial and parallel window execution are byte-identical,
// which TestShardedTrialSerialMatchesParallel gates.
func runDAPESTrial(s Scale, wifiRange float64, trial int, opts DAPESOptions, lookahead time.Duration) (TrialResult, error) {
	topo := buildTopology(s, wifiRange, trial, max(s.Shards, 1), lookahead)
	defer topo.sk.Close()
	seed := TrialSeed(s.BaseSeed, trial)
	for i := 0; i < topo.sk.Shards(); i++ {
		installMediumFaults(topo.sm.Medium(i), s.Faults, seed)
	}
	res, err := buildCollection(s, s.BaseSeed+int64(trial))
	if err != nil {
		return TrialResult{}, err
	}
	collection := res.Manifest.Collection
	cfg := opts.coreConfig()
	peer := func(m geo.Mobility) *core.Peer {
		k, med := topo.home(m)
		return core.NewPeer(k, med, m, nil, nil, cfg)
	}

	producer := peer(topo.producerMobility)
	if err := producer.Publish(res); err != nil {
		return TrialResult{}, err
	}

	ps := dapesPeers{producer: producer}
	addDownloader := func(m geo.Mobility) {
		p := peer(m)
		p.Subscribe(collection)
		ps.downloaders = append(ps.downloaders, p)
	}
	for _, pos := range topo.stationaryPos {
		addDownloader(geo.Stationary{At: pos})
	}
	for _, m := range topo.downloaderMobility {
		addDownloader(m)
	}

	for i, m := range topo.forwarderMobility {
		if i < s.PureForwarders {
			k, med := topo.home(m)
			ps.pures = append(ps.pures, multihop.NewPureForwarder(k, med, m,
				multihop.Config{ForwardProb: opts.ForwardProb}))
			continue
		}
		// DAPES-aware intermediates: understand the semantics, forward based
		// on overheard knowledge, but do not download.
		ps.intermediates = append(ps.intermediates, peer(m))
	}

	producer.Start()
	for _, p := range ps.downloaders {
		p.Start()
	}
	if opts.Multihop {
		for _, f := range ps.pures {
			f.Start()
		}
		for _, p := range ps.intermediates {
			p.Start()
		}
	}

	sched, faultsUntil := scheduleCrashes(s.Faults, seed, ps.downloaders, ps.intermediates)
	return topo.runDAPES(collection, ps, sched, s.Horizon, faultsUntil), nil
}

// dapesPeers are one trial's DAPES nodes by role, in world build order.
type dapesPeers struct {
	producer                   *core.Peer
	downloaders, intermediates []*core.Peer
	pures                      []*multihop.PureForwarder
}

// completions counts the downloaders currently holding a trial's
// collection, so the stop condition of every DAPES trial reads one integer
// per event instead of scanning every peer. Each downloader's complete and
// forget callbacks (core.Peer.SetOnComplete, SetOnForget) keep the count;
// they fire on the goroutine of the peer's home shard, hence the atomic.
type completions struct {
	held atomic.Int64
	want int64
}

// trialProbe, when non-nil, is called at every evaluation of a DAPES
// trial's stop condition with the world, the completion counter's value,
// the collection and the trial's nodes; while it returns true the trial
// does not stop before its horizon. Only tests set it: to hold the counter
// against a scan of core.Peer.Done, and to watch table sizes over a whole
// soak horizon.
var trialProbe func(w world, held int64, collection ndn.Name, ps dapesPeers) (hold bool)

// watchCompletions installs the counting callbacks on every downloader —
// replacing any callbacks installed before — and seeds the count with the
// downloaders already holding the collection. It is the one place a
// trial's completion condition is built.
func watchCompletions(collection ndn.Name, downloaders []*core.Peer) *completions {
	c := &completions{want: int64(len(downloaders))}
	for _, p := range downloaders {
		if done, _ := p.Done(collection); done {
			c.held.Add(1)
		}
		p.SetOnComplete(func(coll ndn.Name, _ time.Duration) {
			if coll.Equal(collection) {
				c.held.Add(1)
			}
		})
		p.SetOnForget(func(coll ndn.Name) {
			if coll.Equal(collection) {
				c.held.Add(-1)
			}
		})
	}
	return c
}

// all reports whether every downloader holds the collection.
func (c *completions) all() bool {
	return c.held.Load() == c.want
}

// runDAPES drives the world until every downloader holds the collection or
// the horizon passes, then folds the trial into a TrialResult. It never
// stops before faultsUntil: a still-pending crash can undo a completion
// the condition just observed.
func (w world) runDAPES(collection ndn.Name, ps dapesPeers, sched fault.Schedule, horizon, faultsUntil time.Duration) TrialResult {
	c := watchCompletions(collection, ps.downloaders)
	w.sk.RunUntil(horizon, func() bool {
		if trialProbe != nil && trialProbe(w, c.held.Load(), collection, ps) {
			return false
		}
		return c.all() && w.sk.Now() >= faultsUntil
	})
	result := collectDAPES(w.sm.Stats().Transmissions, collection, ps, horizon)
	chaosStats(&result, sched, ps.downloaders, collection)
	return result
}

// collectDAPES folds one finished trial's peers into a TrialResult; tx is
// the medium's transmission counter.
func collectDAPES(tx uint64, collection ndn.Name, ps dapesPeers, horizon time.Duration) TrialResult {
	var total time.Duration
	completed := 0
	memory := 0
	var fwd, answered uint64
	for _, p := range ps.downloaders {
		done, at := p.Done(collection)
		if done {
			completed++
		}
		total += censor(done, at, horizon)
		memory += p.MemoryFootprint()
		fwd += p.Stats().InterestsForwarded
		answered += p.Stats().ForwardedAnswered
	}
	for _, p := range ps.intermediates {
		memory += p.MemoryFootprint()
		fwd += p.Stats().InterestsForwarded
		answered += p.Stats().ForwardedAnswered
	}
	for _, f := range ps.pures {
		fwd += f.Stats().InterestsForwarded
		answered += f.Stats().ForwardedAnswered
	}
	acc := 0.0
	if fwd > 0 {
		acc = float64(answered) / float64(fwd)
	}
	return TrialResult{
		AvgDownloadTime: total / time.Duration(len(ps.downloaders)),
		Transmissions:   tx,
		Completed:       completed,
		Downloaders:     len(ps.downloaders),
		ForwardAccuracy: acc,
		MemoryBytes:     memory,
	}
}

// RunDAPES runs Trials trials through the worker pool (s.Workers wide) and
// aggregates the paper's statistics. Results are identical at any pool size.
func RunDAPES(s Scale, wifiRange float64, opts DAPESOptions) (time.Duration, float64, []TrialResult, error) {
	sc := &Scenario{
		Name: "dapes",
		Run: func(s Scale, wifiRange float64, trial int) (TrialResult, error) {
			return RunDAPESTrial(s, wifiRange, trial, opts)
		},
	}
	res, err := Runner{}.Run(sc, s, wifiRange) // pool size comes from s.Workers
	if err != nil {
		return 0, 0, nil, err
	}
	return res.DownloadTime90, res.Transmissions90, res.Trials, nil
}
