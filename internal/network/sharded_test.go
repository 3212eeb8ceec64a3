package network

import (
	"testing"

	"alpha21364/internal/core"
	"alpha21364/internal/packet"
	"alpha21364/internal/ports"
	"alpha21364/internal/router"
	"alpha21364/internal/sim"
	"alpha21364/internal/stats"
	"alpha21364/internal/topology"
)

// buildSharded assembles a k-band sharded network with its ShardGroup,
// mirroring the experiment layer's wiring.
func buildSharded(t *testing.T, kind core.Kind, w, h, shards int) (*Network, *sim.Engine, *sim.ShardGroup, *stats.Collector) {
	t.Helper()
	hub := sim.NewEngine()
	col := stats.NewCollector(0)
	rcfg := router.DefaultConfig(kind)
	part := topology.PartitionRows(topology.NewTorus(w, h), shards)
	members := make([]*sim.Engine, shards)
	for i := range members {
		members[i] = sim.NewEngine()
	}
	pb := sim.NewPostBuffer(w * h)
	net, err := NewSharded(Config{Width: w, Height: h, Router: rcfg}, hub, members, part, pb, col)
	if err != nil {
		t.Fatal(err)
	}
	sg := sim.NewShardGroup(hub, members, pb, net.Lookahead())
	sg.SetEdge(rcfg.RouterPeriod, 0, net.TickShard)
	t.Cleanup(sg.Close)
	return net, hub, sg, col
}

// injectDiagonals schedules one request per node to its (+2,+2) diagonal
// counterpart — every packet crosses a band boundary on a 4x4 cut into
// row bands — spaced so the network sees steady traffic, not one burst.
func injectDiagonals(t *testing.T, net *Network, eng *sim.Engine) {
	t.Helper()
	torus := net.Torus()
	id := uint64(0)
	for n := 0; n < net.Nodes(); n++ {
		n := n
		at := sim.Ticks(n) * 40
		eng.Schedule(at, func() {
			id++
			c := torus.Coord(topology.Node(n))
			dst := torus.Node(topology.Coord{X: c.X + 2, Y: c.Y + 2})
			p := packet.New(id, packet.Request, topology.Node(n), dst, at)
			if !net.Inject(p, topology.Node(n), ports.InCache, at) {
				t.Errorf("node %d: injection failed", n)
			}
		})
	}
}

// TestShardedNetworkMatchesSerial drives identical cross-band traffic
// through a monolithic and a 2-band sharded 4x4 network and requires the
// delivered statistics to agree exactly. No Spec reaches the sharded
// assembly, so no experiment golden covers it: this test and simbench's
// one-band traced run (TestWrappersChangeNoStatistic) are the only
// checks left on the sharded path.
func TestShardedNetworkMatchesSerial(t *testing.T) {
	serialNet, serialEng, serialCol := build(t, core.KindSPAARotary, 4, 4)
	injectDiagonals(t, serialNet, serialEng)
	serialEng.Run(20000)

	shardNet, hub, sg, shardCol := buildSharded(t, core.KindSPAARotary, 4, 4, 2)
	injectDiagonals(t, shardNet, hub)
	sg.Run(20000)

	if serialCol.Packets() != int64(serialNet.Nodes()) {
		t.Fatalf("serial run delivered %d packets, want %d", serialCol.Packets(), serialNet.Nodes())
	}
	if shardCol.Packets() != serialCol.Packets() {
		t.Fatalf("sharded run delivered %d packets, serial delivered %d", shardCol.Packets(), serialCol.Packets())
	}
	if got, want := shardCol.AvgLatencyNS(), serialCol.AvgLatencyNS(); got != want {
		t.Errorf("sharded avg latency %.3f ns, serial %.3f ns", got, want)
	}
	if shardNet.Buffered() != 0 {
		t.Errorf("%d packets still buffered in the sharded network", shardNet.Buffered())
	}
	if f := shardNet.LinkFlight(); f != 0 {
		t.Errorf("sharded link-flight slots sum to %d after drain, want 0", f)
	}
	shardNet.CheckInvariants() // panics on a violated credit bound
}

// TestShardedLookahead pins the CMB window derivation: the inter-router
// wire latency in ticks.
func TestShardedLookahead(t *testing.T) {
	net, _, _, _ := buildSharded(t, core.KindSPAABase, 4, 4, 2)
	rcfg := router.DefaultConfig(core.KindSPAABase)
	want := sim.Ticks(rcfg.LinkLatencyCycles) * rcfg.LinkPeriod
	if got := net.Lookahead(); got != want {
		t.Fatalf("Lookahead() = %d ticks, want %d", got, want)
	}
	if want <= 0 {
		t.Fatal("default config has no positive lookahead; sharding cannot work")
	}
}

// TestNewShardedRejectsMemberMismatch pins the constructor's engine-count
// validation.
func TestNewShardedRejectsMemberMismatch(t *testing.T) {
	hub := sim.NewEngine()
	col := stats.NewCollector(0)
	part := topology.PartitionRows(topology.NewTorus(4, 4), 2)
	pb := sim.NewPostBuffer(16)
	cfg := Config{Width: 4, Height: 4, Router: router.DefaultConfig(core.KindSPAABase)}
	if _, err := NewSharded(cfg, hub, []*sim.Engine{sim.NewEngine()}, part, pb, col); err == nil {
		t.Fatal("one member engine for two shards was accepted")
	}
	if _, err := NewSharded(cfg, hub, nil, nil, pb, col); err == nil {
		t.Fatal("nil partition was accepted")
	}
}
