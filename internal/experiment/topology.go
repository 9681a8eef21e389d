package experiment

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"dapes/internal/geo"
	"dapes/internal/metadata"
	"dapes/internal/ndn"
	"dapes/internal/phy"
	"dapes/internal/sim"
)

// areaSide is the default Fig. 7 simulation area edge in meters; Scale.AreaSide
// overrides it for denser or sparser workloads.
const areaSide = 300.0

// world is the substrate every registered scenario runs on: a sharded
// kernel and medium on the scale's backends. A one-stripe world is the
// sequential simulation — ShardedKernel delegates to its only kernel and
// ShardedMedium installs no cross-shard hook — and starts no goroutines;
// more stripes run the space-partitioned parallel kernel, whose workers
// the caller releases with sk.Close.
type world struct {
	sk *sim.ShardedKernel
	sm *phy.ShardedMedium
}

// newWorld builds a world of `shards` stripes advancing in lookahead
// windows (non-positive selects cfg's conservative lookahead) on
// s.Backends. It is the one place a scenario's kernel and medium come
// from.
func newWorld(s Scale, seed int64, cfg phy.Config, shards int, lookahead time.Duration) world {
	cfg.Index = s.Backends.Index
	if lookahead <= 0 {
		lookahead = cfg.ConservativeLookahead()
	}
	sk := sim.NewShardedKernel(seed, shards, lookahead, s.Backends.ShardOptions)
	return world{sk: sk, sm: phy.NewShardedMedium(sk, cfg)}
}

// topology is one instantiated Fig.-7 world: the sharded substrate, the
// stripes that home each node, and mobility models for every node slot.
// Protocol stacks are attached by the per-system trial runners so DAPES
// and the baselines ride identical node motion.
type topology struct {
	world
	stripes geo.Stripes

	// producerMobility carries the initial collection.
	producerMobility geo.Mobility
	// stationaryPos are the repository positions.
	stationaryPos []geo.Point
	// downloaderMobility are the mobile downloaders' walks.
	downloaderMobility []geo.Mobility
	// forwarderMobility are the 20 intermediate node walks (first half pure
	// forwarders, second half protocol-aware intermediates).
	forwarderMobility []geo.Mobility
}

// buildTopology creates the world for one trial on `shards` stripes. The
// kernel seed and the placement and walk draws depend on the trial alone,
// so a node's walk is identical at every shard count.
func buildTopology(s Scale, wifiRange float64, trial, shards int, lookahead time.Duration) *topology {
	seed := TrialSeed(s.BaseSeed, trial)
	t := &topology{world: newWorld(s, seed, phy.Config{Range: wifiRange, LossRate: s.LossRate}, shards, lookahead)}
	side := s.AreaSide
	if side <= 0 {
		side = areaSide
	}
	area := geo.Rect{Width: side, Height: side}
	// Placement RNG is separate from the kernel stream so event timing does
	// not perturb positions across configurations.
	prng := rand.New(rand.NewSource(seed * 31))

	walk := func() geo.Mobility {
		return geo.NewRandomDirection(geo.RandomDirectionConfig{
			Area:  area,
			Start: geo.Point{X: prng.Float64() * side, Y: prng.Float64() * side},
			RNG:   rand.New(rand.NewSource(prng.Int63())),
		})
	}

	t.producerMobility = walk()
	// Repositories sit at the quadrant centers, as in the Fig. 7 snapshot.
	t.stationaryPos = []geo.Point{
		{X: side / 4, Y: side / 4}, {X: 3 * side / 4, Y: side / 4},
		{X: side / 4, Y: 3 * side / 4}, {X: 3 * side / 4, Y: 3 * side / 4},
	}
	if s.Stationary < len(t.stationaryPos) {
		t.stationaryPos = t.stationaryPos[:s.Stationary]
	}
	for i := 0; i < s.MobileDown; i++ {
		t.downloaderMobility = append(t.downloaderMobility, walk())
	}
	for i := 0; i < s.PureForwarders+s.Intermediates; i++ {
		t.forwarderMobility = append(t.forwarderMobility, walk())
	}

	// Density-balanced stripe boundaries from the t=0 position CDF: every
	// node's starting X, in attach order, feeds the quantile cuts, so each
	// stripe begins with an equal share of the population instead of an
	// equal share of the area — a hotspot stripe would otherwise gate every
	// window for all its siblings.
	xs := make([]float64, 0, 1+len(t.stationaryPos)+len(t.downloaderMobility)+len(t.forwarderMobility))
	xs = append(xs, t.producerMobility.PositionAt(0).X)
	for _, p := range t.stationaryPos {
		xs = append(xs, p.X)
	}
	for _, m := range t.downloaderMobility {
		xs = append(xs, m.PositionAt(0).X)
	}
	for _, m := range t.forwarderMobility {
		xs = append(xs, m.PositionAt(0).X)
	}
	t.stripes = geo.BalancedStripes(wifiRange, side, t.sk.Shards(), xs)
	return t
}

// home returns the kernel and medium of the stripe owning a node whose
// walk is m: the stripe of its t=0 position. Ownership decides which
// kernel runs the node's events, not who hears it — a walker that wanders
// across a stripe boundary keeps its home and reaches its new neighbors
// through the cross-shard handoff path.
func (t *topology) home(m geo.Mobility) (*sim.Kernel, *phy.Medium) {
	h := t.stripes.Of(m.PositionAt(0))
	return t.sk.Shard(h), t.sm.Medium(h)
}

// buildCollection generates the image-file workload: NumFiles files of
// PacketsPerFile packets with pseudo-random (incompressible) content.
func buildCollection(s Scale, seed int64) (*metadata.BuildResult, error) {
	rng := rand.New(rand.NewSource(seed))
	files := make([]metadata.File, s.NumFiles)
	for i := range files {
		content := make([]byte, s.PacketsPerFile*s.PacketSize)
		rng.Read(content)
		files[i] = metadata.File{
			Name:    fmt.Sprintf("image-%03d", i),
			Content: content,
		}
	}
	collection := ndn.ParseName(fmt.Sprintf("/field-report-%d", 1533783192+seed))
	return metadata.BuildCollection(collection, files, s.PacketSize, metadata.FormatPacketDigest, nil)
}

// smallCollection builds a trivially small collection for scenario tests.
func smallCollection(name string, nPackets, packetSize int) (*metadata.BuildResult, error) {
	return metadata.BuildCollection(
		ndn.ParseName(name),
		[]metadata.File{{Name: "payload", Content: bytes.Repeat([]byte{0x5A}, nPackets*packetSize)}},
		packetSize, metadata.FormatPacketDigest, nil)
}

// censor returns completion time or the horizon for incomplete downloads.
func censor(done bool, at, horizon time.Duration) time.Duration {
	if done {
		return at
	}
	return horizon
}
