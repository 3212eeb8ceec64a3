package network

import (
	"testing"

	"alpha21364/internal/core"
	"alpha21364/internal/router"
	"alpha21364/internal/sim"
	"alpha21364/internal/stats"
	"alpha21364/internal/topology"
)

// TestShardedLookahead pins the adapter's Lookahead: the inter-router
// wire latency in ticks.
func TestShardedLookahead(t *testing.T) {
	rcfg := router.DefaultConfig(core.KindSPAABase)
	net, err := NewSharded(Config{Width: 4, Height: 4, Router: rcfg}, sim.NewEngine(), []*sim.Engine{sim.NewEngine()},
		topology.PartitionRows(topology.NewTorus(4, 4), 1), sim.NewPostBuffer(16), stats.NewCollector(0))
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Ticks(rcfg.LinkLatencyCycles) * rcfg.LinkPeriod
	if got := net.Lookahead(); got != want {
		t.Fatalf("Lookahead() = %d ticks, want %d", got, want)
	}
	if want <= 0 {
		t.Fatal("default config has no positive link latency")
	}
}

// TestNewShardedRejectsMemberMismatch pins the constructor's band-count
// check: one partition band and one member engine.
func TestNewShardedRejectsMemberMismatch(t *testing.T) {
	hub := sim.NewEngine()
	col := stats.NewCollector(0)
	part := topology.PartitionRows(topology.NewTorus(4, 4), 1)
	pb := sim.NewPostBuffer(16)
	cfg := Config{Width: 4, Height: 4, Router: router.DefaultConfig(core.KindSPAABase)}
	if _, err := NewSharded(cfg, hub, []*sim.Engine{sim.NewEngine(), sim.NewEngine()}, part, pb, col); err == nil {
		t.Fatal("two member engines for one band were accepted")
	}
	if _, err := NewSharded(cfg, hub, nil, part, pb, col); err == nil {
		t.Fatal("no member engine was accepted")
	}
	if _, err := NewSharded(cfg, hub, []*sim.Engine{sim.NewEngine()}, nil, pb, col); err == nil {
		t.Fatal("nil partition was accepted")
	}
}
