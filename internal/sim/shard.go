package sim

// shard.go keeps the names of the removed multi-band engine as the
// one-band case of Engine.Run: a ShardGroup is its hub engine, and the
// router edge is one of the hub's clock domains. simbench/trace.go is
// the only caller of every name here; ROADMAP items 8–9 delete the file
// once it times the edge on network.New's clock domain instead.

// PostBuffer is empty: every post goes straight to the hub engine.
// simbench/trace.go is its only caller; ROADMAP items 8–9 delete it.
type PostBuffer struct{}

// NewPostBuffer returns an empty PostBuffer; sources is unused.
// simbench/trace.go is its only caller; ROADMAP items 8–9 delete it.
func NewPostBuffer(sources int) *PostBuffer { return &PostBuffer{} }

// ShardGroup runs one hub engine. simbench/trace.go is its only caller;
// ROADMAP items 8–9 delete it.
type ShardGroup struct {
	hub *Engine
}

// NewShardGroup returns the group over hub; members, pb and lookahead
// are unused. simbench/trace.go is its only caller; ROADMAP items 8–9
// delete it.
func NewShardGroup(hub *Engine, members []*Engine, pb *PostBuffer, lookahead Ticks) *ShardGroup {
	return &ShardGroup{hub: hub}
}

// SetEdge adds job, one router clock edge, to the hub as a clock domain
// of the given period and phase, so it fires after the domains added
// before it and before those added after it. The job gets shard 0, the
// edge's tick and an edge counter that starts at 1. simbench/trace.go is
// its only caller; ROADMAP items 8–9 delete it.
func (g *ShardGroup) SetEdge(period, phase Ticks, job func(shard int, now Ticks, edge uint64)) {
	g.hub.AddClock(period, phase, &edgeClock{job: job})
}

// edgeClock is SetEdge's clock domain component.
type edgeClock struct {
	job   func(shard int, now Ticks, edge uint64)
	edges uint64
}

func (c *edgeClock) Tick(now Ticks) {
	c.edges++
	c.job(0, now, c.edges)
}

// Run is the hub's Run. simbench/trace.go is its only caller; ROADMAP
// items 8–9 delete it.
func (g *ShardGroup) Run(until Ticks) { g.hub.Run(until) }

// Close does nothing. simbench/trace.go is its only caller; ROADMAP
// items 8–9 delete it.
func (g *ShardGroup) Close() {}
