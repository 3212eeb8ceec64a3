package network

import (
	"fmt"

	"alpha21364/internal/sim"
	"alpha21364/internal/stats"
	"alpha21364/internal/topology"
)

// NewSharded builds the network on hub without a router clock, for a
// sim.ShardGroup to drive through SetEdge(RouterPeriod, 0,
// net.TickShard). It takes exactly one member engine, which it does not
// use. simbench/trace.go is its only caller; ROADMAP items 8–9 delete
// it.
func NewSharded(cfg Config, hub *sim.Engine, members []*sim.Engine,
	part *topology.Partition, pb *sim.PostBuffer, collector *stats.Collector) (*Network, error) {
	if part == nil {
		return nil, fmt.Errorf("network: sharded build needs a partition")
	}
	if len(members) != part.Shards() {
		return nil, fmt.Errorf("network: %d member engines for %d shards (need one per shard)",
			len(members), part.Shards())
	}
	return buildNetwork(cfg, hub, collector)
}

// Lookahead returns the inter-router link latency. simbench/trace.go is
// its only caller; ROADMAP items 8–9 delete it.
func (n *Network) Lookahead() sim.Ticks {
	return sim.Ticks(n.cfg.Router.LinkLatencyCycles) * n.cfg.Router.LinkPeriod
}

// TickShard runs the router clock edge New registers, tickRouters.
// simbench/trace.go is its only caller; ROADMAP items 8–9 delete it.
func (n *Network) TickShard(shard int, now sim.Ticks, edge uint64) { n.tickRouters(now) }
