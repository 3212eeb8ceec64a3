package sim

// shard.go is the multi-engine half of the simulator: a ShardGroup runs
// one hub engine plus k member engines in conservative lockstep, the
// classic CMB (Chandy-Misra-Bryant) null-message discipline collapsed to
// its synchronous special case. Each member engine owns the event queue
// for one spatial shard of the network (its routers' link-arrival
// events); the hub engine owns everything global — sink deliveries, the
// workload generator's clock domain, the invariant checker's sweeps, the
// cancellation poll.
//
// Why lockstep is safe (the lookahead argument): every cross-engine
// event is produced during a clock edge and lands at least `lookahead`
// ticks in the future (for inter-router links: the post-arbitration
// pipeline depth plus the wire latency; Flush asserts the bound). All
// cross-engine posting happens through a PostBuffer that is flushed by
// the coordinating goroutine between phases, so when the group advances
// to tick t, every queue already holds every event it will ever receive
// for t — the CMB safety condition "no message in flight earlier than
// min(neighbor horizons) + lookahead" holds trivially, with the barrier
// protocol standing in for per-channel null messages.
//
// Why the results are byte-identical to one monolithic engine: within a
// tick the phases run in the monolithic engine's order (due events, then
// the router clock edge, then the hub's clock domains), and the
// PostBuffer serializes every edge-phase post in sender-node order —
// exactly the order a single engine would have assigned its global
// sequence numbers, so each queue's (time, seq) dispatch order matches
// the monolithic order restricted to that queue's events. The events
// that do swap order across queues (link arrivals on two different
// routers, an arrival vs. a hub delivery) touch disjoint simulation
// state, so no observable byte depends on the swap. The edge phase
// itself is delegated to an EdgeJob that must preserve the serial
// visibility order between coupled routers (internal/network's
// anti-diagonal wavefront does).

// EdgeJob executes one shard's share of a router clock edge. The
// ShardGroup invokes it once per shard per edge — concurrently across
// shards — with the edge's tick and a 1-based edge counter the job can
// use for cross-shard completion flags.
type EdgeJob func(shard int, now Ticks, edge uint64)

// pendingPost is one buffered cross-engine event.
type pendingPost struct {
	target *Engine
	at     Ticks
	h      HandlerID
	args   EventArgs
}

// PostBuffer collects the events produced during a parallel clock edge,
// keyed by the producing source (in the network: the sending router's
// node id), so Flush can replay them in source order — the order a
// monolithic engine would have posted them in. Each source's slice is
// appended to by exactly one worker goroutine, so the buffer needs no
// locking; steady state appends into retained capacity and allocates
// nothing.
type PostBuffer struct {
	perSrc [][]pendingPost
	// open guards against posts outside an edge phase: buffered posts
	// are only flushed right after the edge, so a post from any other
	// phase would be deferred to the wrong point in the tick.
	open bool
}

// NewPostBuffer returns a buffer for the given number of ordered sources.
func NewPostBuffer(sources int) *PostBuffer {
	return &PostBuffer{perSrc: make([][]pendingPost, sources)}
}

// Post buffers an event produced by src for the target engine. It is
// safe to call concurrently for distinct sources.
func (b *PostBuffer) Post(src int, target *Engine, at Ticks, h HandlerID, args EventArgs) {
	if !b.open {
		panic("sim: PostBuffer.Post outside an edge phase")
	}
	b.perSrc[src] = append(b.perSrc[src], pendingPost{target: target, at: at, h: h, args: args})
}

// edgeCmd tells a worker to run its shard's edge job.
type edgeCmd struct {
	now  Ticks
	edge uint64
}

// ShardGroup coordinates one hub engine and k member engines through a
// shared simulated clock. Construct it with NewShardGroup, attach the
// router edge with SetEdge, then Run; Close releases the worker
// goroutines. The group is not safe for concurrent use.
type ShardGroup struct {
	hub     *Engine
	members []*Engine
	pb      *PostBuffer
	// lookahead is the minimum cross-shard event latency; Flush asserts
	// every member-bound post respects it (the CMB safety condition).
	lookahead Ticks

	period, phase Ticks
	job           EdgeJob
	edges         uint64

	cmd     []chan edgeCmd
	done    chan struct{}
	started bool
	closed  bool
}

// NewShardGroup builds a group over a hub engine, the per-shard member
// engines, and the post buffer the shards' producers write into.
func NewShardGroup(hub *Engine, members []*Engine, pb *PostBuffer, lookahead Ticks) *ShardGroup {
	if hub == nil || len(members) == 0 {
		panic("sim: ShardGroup needs a hub and at least one member engine")
	}
	if lookahead <= 0 {
		panic("sim: ShardGroup lookahead must be positive")
	}
	return &ShardGroup{hub: hub, members: members, pb: pb, lookahead: lookahead}
}

// Lookahead returns the group's conservative synchronization window.
func (g *ShardGroup) Lookahead() Ticks { return g.lookahead }

// SetEdge attaches the parallel clock edge: job runs once per member
// shard on every edge of the given period/phase, between the tick's
// event phase and the hub's clock domains — the slot the monolithic
// engine gives the router clock domain.
func (g *ShardGroup) SetEdge(period, phase Ticks, job EdgeJob) {
	if period <= 0 {
		panic("sim: edge period must be positive")
	}
	g.period, g.phase, g.job = period, phase, job
}

// start spins up one worker goroutine per member shard.
func (g *ShardGroup) start() {
	g.started = true
	if len(g.members) == 1 {
		return // single shard: the coordinator runs the edge inline
	}
	g.done = make(chan struct{}, len(g.members))
	g.cmd = make([]chan edgeCmd, len(g.members))
	for i := range g.cmd {
		ch := make(chan edgeCmd, 1)
		g.cmd[i] = ch
		go func(shard int, ch chan edgeCmd) {
			for c := range ch {
				g.job(shard, c.now, c.edge)
				g.done <- struct{}{}
			}
		}(i, ch)
	}
}

// Close releases the worker goroutines. The group cannot Run afterwards.
func (g *ShardGroup) Close() {
	if g.closed {
		return
	}
	g.closed = true
	for _, ch := range g.cmd {
		close(ch)
	}
}

// nextEdgeAt returns the first edge tick at or after now.
func (g *ShardGroup) nextEdgeAt(now Ticks) Ticks {
	if now <= g.phase {
		return g.phase
	}
	k := (now - g.phase + g.period - 1) / g.period
	return g.phase + k*g.period
}

// nextDispatch returns the earliest tick with pending work anywhere in
// the group: hub events and domains, member events, or a clock edge.
func (g *ShardGroup) nextDispatch() (Ticks, bool) {
	best, found := g.hub.nextDispatch()
	for _, m := range g.members {
		if t, ok := m.nextEventAt(); ok && (!found || t < best) {
			best, found = t, true
		}
	}
	if g.job != nil {
		if t := g.nextEdgeAt(g.hub.now); !found || t < best {
			best, found = t, true
		}
	}
	return best, found
}

// runEdge executes one router clock edge across all shards and flushes
// the buffered posts.
func (g *ShardGroup) runEdge(now Ticks) {
	g.edges++
	g.pb.open = true
	if len(g.members) == 1 {
		g.job(0, now, g.edges)
	} else {
		c := edgeCmd{now: now, edge: g.edges}
		for _, ch := range g.cmd {
			ch <- c
		}
		for range g.members {
			<-g.done
		}
	}
	g.pb.open = false
	g.flush(now)
}

// flush replays the edge's buffered posts in source order, assigning
// each target queue the same relative sequence order a monolithic
// engine's global counter would have, and asserts the lookahead bound
// on every member-bound (cross-shard-capable) post.
func (g *ShardGroup) flush(now Ticks) {
	for src := range g.pb.perSrc {
		posts := g.pb.perSrc[src]
		for i := range posts {
			p := &posts[i]
			if p.target != g.hub && p.at < now+g.lookahead {
				panic("sim: cross-shard post inside the lookahead window")
			}
			p.target.Post(p.at, p.h, p.args)
			p.args = EventArgs{} // drop payload references
		}
		g.pb.perSrc[src] = posts[:0]
	}
}

// Run advances the whole group up to and including tick `until`,
// dispatching each tick's phases in the monolithic engine's order:
// member events, hub events, the parallel router edge, hub clock
// domains. Stopping the hub engine (Engine.Stop) halts the group. Like
// Engine.Run, a Run that ends on a tick with work stays in it (the hub
// records it), and the next Run leaves it first.
func (g *ShardGroup) Run(until Ticks) {
	if g.closed {
		panic("sim: Run on a closed ShardGroup")
	}
	if !g.started {
		g.start()
	}
	g.hub.stopped = false
	if g.hub.inTick {
		if until <= g.hub.now {
			return
		}
		g.hub.inTick = false
		g.endTick()
	}
	for !g.hub.stopped {
		next, ok := g.nextDispatch()
		if !ok || next > until {
			g.finish(until)
			return
		}
		g.hub.moveTo(next)
		for _, m := range g.members {
			m.moveTo(next)
			if !m.dispatchDue() {
				return
			}
		}
		if !g.hub.dispatchDue() {
			return
		}
		if g.job != nil && next >= g.phase && (next-g.phase)%g.period == 0 {
			g.runEdge(next)
		}
		g.hub.tickDomains()
		if next == until {
			g.hub.inTick = true
			return
		}
		g.endTick()
	}
}

// endTick leaves the current tick on every engine of the group.
func (g *ShardGroup) endTick() {
	g.hub.endTick()
	for _, m := range g.members {
		m.endTick()
	}
}

// finish advances every engine's clock to until when no work remains
// before it, mirroring Engine.Run's idle fast-forward.
func (g *ShardGroup) finish(until Ticks) {
	g.hub.moveTo(until)
	for _, m := range g.members {
		m.moveTo(until)
	}
}
