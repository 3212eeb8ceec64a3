package workload

import (
	"math/bits"

	"alpha21364/internal/network"
	"alpha21364/internal/packet"
	"alpha21364/internal/ports"
	"alpha21364/internal/sim"
	"alpha21364/internal/stats"
	"alpha21364/internal/topology"
)

// Config composes one workload: a spatial pattern, an arrival process,
// and a transaction model, plus the closed-loop cap and recording hooks.
type Config struct {
	// Pattern draws request destinations; nil means uniform.
	Pattern Pattern
	// Process is the arrival law; nil means no new demands (replay).
	Process Process
	// Model is the transaction model; nil means the paper's coherence
	// model with default parameters.
	Model Model
	// MaxOutstanding caps in-flight transactions per processor (the
	// 21364's 16 outstanding cache misses; Figure 11b uses 64). Zero or
	// negative means uncapped.
	MaxOutstanding int
	// Seed feeds the workload RNG stream (patterns, processes, and model
	// coin flips), independent of the router seeds.
	Seed uint64
	// Record, when non-nil, appends every packet creation to the trace.
	Record *Trace
}

// Generator drives every processor in the network: it asks the Process
// for demands, opens transactions through the Model (bounded by the
// outstanding cap), owns the processor-side injection queues, and relays
// deliveries back to the Model. It is a sim.Clocked component on the
// router clock.
type Generator struct {
	cfg       Config
	net       *network.Network
	collector *stats.Collector
	rng       *sim.RNG
	model     Model
	process   Process

	outstanding []int
	demand      []int64
	// arena pools packets: drawn at creation, released once the delivery
	// is fully processed, so steady-state injection allocates nothing.
	arena *packet.Arena
	// pending holds packets awaiting buffer space: one FIFO per (node,
	// local input port) pair, indexed node*numInjPorts + port offset
	// (processor-side injection queues).
	pending []pendQueue
	// pendIdx indexes the non-empty pending queues: bit slot%64 of word
	// slot/64 is set exactly when pending[slot] holds a packet. enqueue's
	// push sets it and tryInject's pop clears it when the queue empties
	// (the queues' only mutations), so drainPending visits only queues
	// with work.
	pendIdx []uint64

	nextPkt   uint64
	completed int64
	sunk      int64
	stopped   bool
	// inTick is true while the generator's clock tick runs; it stamps the
	// Clocked flag on recorded trace events.
	inTick bool

	eng *sim.Engine
}

// injPorts are the local input ports packets inject on, in retry order.
var injPorts = [...]ports.In{ports.InCache, ports.InMC0, ports.InMC1, ports.InIO}

// numInjPorts is the injection-port count per node.
const numInjPorts = len(injPorts)

// pendSlot maps a (node, port) pair to its pending-queue index.
func pendSlot(node topology.Node, in ports.In) int {
	return int(node)*numInjPorts + int(in-ports.InCache)
}

// pendQueue is a reusable FIFO over a slice: pops advance a head index,
// and the buffer is reclaimed when drained (or compacted when the dead
// prefix dominates), so a steady-state queue allocates nothing.
type pendQueue struct {
	buf  []*packet.Packet
	head int
}

func (q *pendQueue) len() int { return len(q.buf) - q.head }

func (q *pendQueue) front() *packet.Packet {
	if q.head >= len(q.buf) {
		return nil
	}
	return q.buf[q.head]
}

func (q *pendQueue) push(p *packet.Packet) {
	if q.head > 32 && q.head*2 >= len(q.buf) {
		// Reclaim the popped prefix before growing further.
		n := copy(q.buf, q.buf[q.head:])
		for i := n; i < len(q.buf); i++ {
			q.buf[i] = nil
		}
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, p)
}

func (q *pendQueue) pop() {
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
}

// New creates a generator, installs its delivery handler on the network,
// and returns it. Attach it to the router clock domain before the routers
// so demands arrive at the head of each cycle. The RNG is seeded exactly
// as the pre-workload traffic generator was (seed ^ 0xfeedface), keeping
// the paper's figures bit-identical.
func New(cfg Config, net *network.Network, eng *sim.Engine, collector *stats.Collector) *Generator {
	if cfg.Pattern == nil {
		cfg.Pattern = NewUniform(net.Torus())
	}
	if cfg.Process == nil {
		cfg.Process = NewSilent()
	}
	if cfg.Model == nil {
		cfg.Model = NewCoherence()
	}
	g := &Generator{
		cfg:         cfg,
		net:         net,
		collector:   collector,
		rng:         sim.NewRNG(cfg.Seed ^ 0xfeedface),
		model:       cfg.Model,
		process:     cfg.Process,
		outstanding: make([]int, net.Nodes()),
		demand:      make([]int64, net.Nodes()),
		arena:       packet.NewArena(),
		pending:     make([]pendQueue, net.Nodes()*numInjPorts),
		pendIdx:     make([]uint64, (net.Nodes()*numInjPorts+63)/64),
		eng:         eng,
	}
	routerPeriod := net.Router(0).Config().RouterPeriod
	g.process.Bind(net.Nodes())
	g.model.Bind(&Env{
		Torus:        net.Torus(),
		Pattern:      cfg.Pattern,
		RNG:          g.rng,
		Eng:          eng,
		RouterPeriod: routerPeriod,
		NewPacket:    g.newPacket,
		Enqueue:      g.enqueue,
		Complete:     g.complete,
	})
	net.OnDeliver(g.onDeliver)
	return g
}

// Model returns the generator's transaction model.
func (g *Generator) Model() Model { return g.model }

// Completed returns the number of finished transactions.
func (g *Generator) Completed() int64 { return g.completed }

// ArenaLive returns the number of packets currently checked out of the
// generator's arena — everything injected or queued but not yet released
// by a processed delivery. The invariant oracle cross-checks it against
// the router-level conservation counters to catch packet leaks.
func (g *Generator) ArenaLive() int { return g.arena.Live() }

// Sunk returns the number of deliveries whose sink events have been fully
// processed (statistics recorded, model notified, packet released).
func (g *Generator) Sunk() int64 { return g.sunk }

// Outstanding returns a node's in-flight transaction count.
func (g *Generator) Outstanding(node topology.Node) int { return g.outstanding[node] }

// InFlightTxns returns the number of open transactions.
func (g *Generator) InFlightTxns() int { return g.model.InFlight() }

// PendingInjections returns packets queued processor-side for buffer
// space.
func (g *Generator) PendingInjections() int {
	n := 0
	for i := range g.pending {
		n += g.pending[i].len()
	}
	return n
}

// Stop halts new transaction demand; in-flight transactions drain.
func (g *Generator) Stop() { g.stopped = true }

// Tick implements sim.Clocked on the router clock: draw arrivals, open
// transactions up to the outstanding cap, give the model its per-cycle
// hook, and retry pending injections.
func (g *Generator) Tick(now sim.Ticks) {
	g.inTick = true
	for node := 0; node < g.net.Nodes(); node++ {
		n := topology.Node(node)
		if !g.stopped {
			g.demand[node] += int64(g.process.Arrivals(node, g.rng))
		}
		for g.demand[node] > 0 && (g.cfg.MaxOutstanding <= 0 || g.outstanding[node] < g.cfg.MaxOutstanding) {
			g.demand[node]--
			g.outstanding[node]++
			g.model.Start(n, now)
		}
	}
	g.model.Tick(now)
	g.inTick = false
	g.drainPending(now)
}

// newPacket mints the next packet at the current engine time, records it
// with the statistics collector, and leaves a placeholder trace event
// (the injection point is completed by enqueue).
func (g *Generator) newPacket(cl packet.Class, src, dst topology.Node, txnID uint64) *packet.Packet {
	g.nextPkt++
	p := g.arena.New(g.nextPkt, cl, src, dst, g.eng.Now())
	p.TxnID = txnID
	g.collector.Injected(p)
	if g.cfg.Record != nil {
		g.cfg.Record.Events = append(g.cfg.Record.Events, Event{
			At:      g.eng.Now(),
			Clocked: g.inTick,
			Node:    src, // provisional; enqueue records the true injection node
			In:      ports.InCache,
			Class:   cl,
			Src:     src,
			Dst:     dst,
		})
	}
	return p
}

// enqueue adds a packet to a node's processor-side injection queue and
// tries to push it into the router immediately.
func (g *Generator) enqueue(node topology.Node, in ports.In, p *packet.Packet) {
	if g.cfg.Record != nil {
		// Fix up the injection point of the event newPacket just appended.
		ev := &g.cfg.Record.Events[len(g.cfg.Record.Events)-1]
		ev.Node, ev.In = node, in
	}
	slot := pendSlot(node, in)
	g.pending[slot].push(p)
	g.pendIdx[slot/64] |= 1 << (slot % 64)
	g.tryInject(slot, node, in, g.eng.Now())
}

// complete closes one of requester's transactions.
func (g *Generator) complete(requester topology.Node) {
	g.outstanding[requester]--
	g.completed++
}

// drainPending retries one injection per non-empty (node, port) queue
// per cycle, in slot order. Injection never enqueues, so the walk only
// ever clears bits it has already passed.
func (g *Generator) drainPending(now sim.Ticks) {
	for i, word := range g.pendIdx {
		for w := word; w != 0; w &= w - 1 {
			slot := i*64 + bits.TrailingZeros64(w)
			g.tryInject(slot, topology.Node(slot/numInjPorts), injPorts[slot%numInjPorts], now)
		}
	}
}

func (g *Generator) tryInject(slot int, node topology.Node, in ports.In, now sim.Ticks) {
	q := &g.pending[slot]
	p := q.front()
	if p == nil {
		return
	}
	if !g.net.Inject(p, node, in, now) {
		return
	}
	q.pop()
	if q.len() == 0 {
		g.pendIdx[slot/64] &^= 1 << (slot % 64)
	}
}

// onDeliver relays deliveries to the model, then returns the packet to
// the arena: once the model has seen the delivery, nothing in the
// simulation references the packet again.
func (g *Generator) onDeliver(p *packet.Packet, at sim.Ticks) {
	g.model.Deliver(p, at)
	if g.arena.Owns(p) {
		g.arena.Release(p)
	}
	g.sunk++
}
