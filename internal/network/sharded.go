package network

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"alpha21364/internal/sim"
	"alpha21364/internal/stats"
	"alpha21364/internal/topology"
)

// sharded.go is the spatially-sharded assembly of the torus: the router
// rows are split into contiguous bands (topology.PartitionRows), each
// band's link-arrival events live in their own member engine's event
// queue, and the router clock edge runs one goroutine per band walking
// the partition's anti-diagonal wavefront schedule. Cross-band coupling
// during an edge is exactly the credit-pool release a router performs on
// its upstream neighbor's pool, and the schedule's WaitOn/Publish flags
// reproduce the serial node-order visibility for every such pair — so a
// sharded run is byte-identical to the monolithic engine, which is what
// lets the golden fingerprints gate this code.

// NewSharded builds the torus over a hub engine plus one member engine
// per partition band, buffering all edge-phase posts (boundary link
// arrivals, in-band link arrivals, sink deliveries) in pb for the
// ShardGroup to flush in node order. The caller drives edges through
// ShardGroup.SetEdge(RouterPeriod, 0, net.TickShard).
func NewSharded(cfg Config, hub *sim.Engine, members []*sim.Engine,
	part *topology.Partition, pb *sim.PostBuffer, collector *stats.Collector) (*Network, error) {
	if part == nil {
		return nil, fmt.Errorf("network: sharded build needs a partition")
	}
	if len(members) != part.Shards() {
		return nil, fmt.Errorf("network: %d member engines for %d shards (need one per shard)",
			len(members), part.Shards())
	}
	n, err := buildNetwork(cfg, hub, collector, part, members, pb)
	if err != nil {
		return nil, err
	}
	n.sched = make([][]topology.Step, part.Shards())
	for b := 0; b < part.Shards(); b++ {
		n.sched[b] = part.Schedule(b)
	}
	n.flags = make([]atomic.Uint64, n.torus.Nodes())
	return n, nil
}

// Lookahead returns the conservative synchronization window for this
// network: the inter-router link latency. Every cross-shard event is a
// link traversal posted at least this far in the future (a header
// departs no earlier than the tick of the edge that granted it), which
// is the CMB bound the ShardGroup asserts on every flushed post.
func (n *Network) Lookahead() sim.Ticks {
	return sim.Ticks(n.cfg.Router.LinkLatencyCycles) * n.cfg.Router.LinkPeriod
}

// TickShard runs one band's share of a router clock edge: its cells in
// anti-diagonal wavefront order, spinning on the edge flags of
// cross-band dependencies and publishing its own boundary cells' flags
// as they complete. It is a sim.EdgeJob; the ShardGroup invokes it once
// per shard per edge, concurrently.
func (n *Network) TickShard(shard int, now sim.Ticks, edge uint64) {
	sched := n.sched[shard]
	for i := range sched {
		st := &sched[i]
		for _, dep := range st.WaitOn {
			for n.flags[dep].Load() < edge {
				runtime.Gosched()
			}
		}
		n.routers[st.Node].Tick(now)
		if st.Publish {
			n.flags[st.Node].Store(edge)
		}
	}
}
