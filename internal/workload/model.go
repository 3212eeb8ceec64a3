package workload

import (
	"fmt"
	"strings"

	"alpha21364/internal/packet"
	"alpha21364/internal/ports"
	"alpha21364/internal/sim"
	"alpha21364/internal/topology"
)

// Env is the injection environment the Generator hands to its Model: how
// to mint packets, queue them at processor-side ports, schedule future
// protocol steps, and report transaction completion. Models must go
// through the Env for every packet so that packet ids, statistics, and
// trace recording stay consistent.
type Env struct {
	Torus   topology.Torus
	Pattern Pattern
	RNG     *sim.RNG
	Eng     *sim.Engine
	// RouterPeriod is the router clock period in ticks.
	RouterPeriod sim.Ticks
	// NewPacket mints the next packet (sequential id, creation time now,
	// stats and trace recording applied) without enqueuing it.
	NewPacket func(cl packet.Class, src, dst topology.Node, txnID uint64) *packet.Packet
	// Enqueue queues a packet at a node's processor-side injection port
	// and attempts the injection immediately.
	Enqueue func(node topology.Node, in ports.In, p *packet.Packet)
	// Complete reports that one of requester's transactions finished,
	// closing the outstanding-limit loop.
	Complete func(requester topology.Node)
}

// Model defines what a transaction is: which packets a new demand injects
// and how deliveries advance the protocol.
type Model interface {
	// Name returns the model's canonical parse name.
	Name() string
	// Bind hands the model its environment; called once before the run.
	Bind(env *Env)
	// Start opens a transaction for a new demand at requester.
	Start(requester topology.Node, now sim.Ticks)
	// Deliver advances bookkeeping when a packet reaches its destination.
	Deliver(p *packet.Packet, at sim.Ticks)
	// Tick runs once per router cycle before pending-injection retries
	// (the replay model injects from its trace here; others no-op).
	Tick(now sim.Ticks)
	// InFlight returns the number of open transactions.
	InFlight() int
}

// coherenceTxn tracks one coherence transaction.
type coherenceTxn struct {
	requester topology.Node
	home      topology.Node
	owner     topology.Node // 3-hop only
	twoHop    bool
}

// Coherence is the paper's §4.2 transaction model: a mix of 2-hop
// transactions (3-flit request to the home node, 19-flit block response
// after the memory latency) and 3-hop transactions (request, 3-flit
// forward to the owner after the directory lookup, block response after
// the owner's L2 latency).
type Coherence struct {
	// TwoHopFraction is the share of 2-hop transactions (paper: 0.7).
	TwoHopFraction float64
	// MemoryLatency is the home memory response time (paper: 73 ns).
	MemoryLatency sim.Ticks
	// L2LatencyCycles is the owner cache's response time (paper: 25
	// cycles).
	L2LatencyCycles int

	env       *Env
	l2Latency sim.Ticks
	txns      map[uint64]*coherenceTxn
	freeTxns  []*coherenceTxn
	nextTxn   uint64
	// memH and ownerH are the registered protocol-step handlers: the home
	// memory/directory response and the owner's L2 response. Both carry
	// only the transaction id, so no packet is captured past its delivery.
	memH   sim.HandlerID
	ownerH sim.HandlerID
}

// NewCoherence returns the paper's coherence model with its default
// parameters (70% 2-hop, 73 ns memory, 25-cycle L2).
func NewCoherence() *Coherence {
	return &Coherence{
		TwoHopFraction:  0.7,
		MemoryLatency:   sim.FromNS(73),
		L2LatencyCycles: 25,
	}
}

func (c *Coherence) Name() string { return "coherence" }

func (c *Coherence) Bind(env *Env) {
	c.env = env
	c.l2Latency = sim.Ticks(c.L2LatencyCycles) * env.RouterPeriod
	c.txns = make(map[uint64]*coherenceTxn)
	c.memH = env.Eng.RegisterHandler(c.memoryStep)
	c.ownerH = env.Eng.RegisterHandler(c.ownerStep)
}

// newTxn draws a transaction from the free pool.
func (c *Coherence) newTxn() *coherenceTxn {
	if n := len(c.freeTxns); n > 0 {
		t := c.freeTxns[n-1]
		c.freeTxns = c.freeTxns[:n-1]
		*t = coherenceTxn{}
		return t
	}
	return &coherenceTxn{}
}

func (c *Coherence) InFlight() int { return len(c.txns) }

func (c *Coherence) Tick(sim.Ticks) {}

// Start opens a transaction and queues its request at the requester's
// cache port. The RNG draw order — destination, then the 2-hop/3-hop
// coin, then the owner — matches the pre-workload traffic generator
// bit for bit.
func (c *Coherence) Start(requester topology.Node, now sim.Ticks) {
	c.nextTxn++
	t := c.newTxn()
	t.requester = requester
	t.home = c.env.Pattern.Dest(requester, c.env.RNG)
	t.twoHop = c.env.RNG.Bernoulli(c.TwoHopFraction)
	if !t.twoHop {
		t.owner = topology.Node(c.env.RNG.Intn(c.env.Torus.Nodes()))
	}
	c.txns[c.nextTxn] = t
	req := c.env.NewPacket(packet.Request, requester, t.home, c.nextTxn)
	c.env.Enqueue(requester, ports.InCache, req)
}

// Deliver advances the owning transaction when a packet reaches its
// destination's local ports. Protocol steps are posted through the
// registered handlers with only the transaction id as payload — the
// delivered packet may be recycled by its arena the moment Deliver
// returns.
func (c *Coherence) Deliver(p *packet.Packet, at sim.Ticks) {
	t := c.txns[p.TxnID]
	if t == nil {
		return // packet outside transaction bookkeeping (replays, tests)
	}
	switch p.Class {
	case packet.Request:
		// Home memory (or the directory lookup) responds after 73 ns.
		c.env.Eng.Post(at+c.MemoryLatency, c.memH, sim.EventArgs{A: int64(p.TxnID)})
	case packet.Forward:
		// Owner's L2 supplies the block after 25 cycles.
		c.env.Eng.Post(at+c.l2Latency, c.ownerH, sim.EventArgs{A: int64(p.TxnID)})
	case packet.BlockResponse:
		delete(c.txns, p.TxnID)
		c.freeTxns = append(c.freeTxns, t)
		c.env.Complete(t.requester)
	}
}

// memoryStep is the home node's response to a request: the cache block
// for 2-hop transactions, the forward to the owner for 3-hop ones.
func (c *Coherence) memoryStep(args sim.EventArgs) {
	txnID := uint64(args.A)
	t := c.txns[txnID]
	if t == nil {
		return // transaction gone (generator stopped mid-protocol)
	}
	if t.twoHop {
		resp := c.env.NewPacket(packet.BlockResponse, t.home, t.requester, txnID)
		c.env.Enqueue(t.home, mcPort(txnID), resp)
	} else {
		fwd := c.env.NewPacket(packet.Forward, t.home, t.owner, txnID)
		c.env.Enqueue(t.home, mcPort(txnID), fwd)
	}
}

// ownerStep is the 3-hop owner's block response.
func (c *Coherence) ownerStep(args sim.EventArgs) {
	txnID := uint64(args.A)
	t := c.txns[txnID]
	if t == nil {
		return
	}
	resp := c.env.NewPacket(packet.BlockResponse, t.owner, t.requester, txnID)
	c.env.Enqueue(t.owner, ports.InCache, resp)
}

// mcPort interleaves response injections across the two memory controller
// input ports.
func mcPort(txnID uint64) ports.In {
	if txnID%2 == 0 {
		return ports.InMC0
	}
	return ports.InMC1
}

// SizeMix is one entry of a datagram packet-size mix: a packet class
// (which fixes the flit count) and its relative weight.
type SizeMix struct {
	Class  packet.Class
	Weight float64
}

// Datagram is an open-loop model: each demand injects a single packet —
// class drawn from a configurable size mix — at the cache port and the
// transaction completes immediately, so the outstanding-transaction cap
// never throttles injection (classic open-loop network evaluation).
type Datagram struct {
	mix []SizeMix
	cum cumDist

	env       *Env
	delivered int64
	inFlight  int64
}

// DefaultSizeMix mirrors the paper's flit balance: 70% short 3-flit
// packets, 30% full 19-flit cache-block packets.
func DefaultSizeMix() []SizeMix {
	return []SizeMix{
		{Class: packet.Request, Weight: 0.7},
		{Class: packet.BlockResponse, Weight: 0.3},
	}
}

// NewDatagram returns an open-loop datagram model with the given packet
// size mix (nil for DefaultSizeMix).
func NewDatagram(mix []SizeMix) (*Datagram, error) {
	if mix == nil {
		mix = DefaultSizeMix()
	}
	weights := make([]float64, len(mix))
	for i, m := range mix {
		if m.Class >= packet.NumClasses {
			return nil, fmt.Errorf("workload: datagram mix has invalid class %d", m.Class)
		}
		weights[i] = m.Weight
	}
	cum, err := newCumDist(weights)
	if err != nil {
		return nil, fmt.Errorf("datagram mix: %w", err)
	}
	return &Datagram{mix: mix, cum: cum}, nil
}

func (d *Datagram) Name() string { return "datagram" }

func (d *Datagram) Bind(env *Env) { d.env = env }

func (d *Datagram) InFlight() int { return int(d.inFlight) }

func (d *Datagram) Tick(sim.Ticks) {}

// Delivered returns the number of datagrams that reached their
// destination.
func (d *Datagram) Delivered() int64 { return d.delivered }

func (d *Datagram) Start(requester topology.Node, now sim.Ticks) {
	dst := d.env.Pattern.Dest(requester, d.env.RNG)
	cl := d.mix[d.cum.draw(d.env.RNG)].Class
	d.inFlight++
	p := d.env.NewPacket(cl, requester, dst, 0)
	d.env.Enqueue(requester, ports.InCache, p)
	// Open loop: the demand is complete once injected, so backpressure
	// never reaches the arrival process through the outstanding cap.
	d.env.Complete(requester)
}

func (d *Datagram) Deliver(p *packet.Packet, at sim.Ticks) {
	d.delivered++
	d.inFlight--
}

var modelOrder = []string{"coherence", "datagram"}

// ModelNames returns the canonical transaction-model names in listing
// order (the replay model is constructed from a trace, not by name).
func ModelNames() []string {
	out := make([]string, len(modelOrder))
	copy(out, modelOrder)
	return out
}

// NewModel resolves a transaction model by name (case-insensitive) with
// its default parameters.
func NewModel(name string) (Model, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "coherence":
		return NewCoherence(), nil
	case "datagram":
		d, err := NewDatagram(nil)
		if err != nil {
			panic(err) // unreachable: the default mix is valid
		}
		return d, nil
	}
	return nil, fmt.Errorf("workload: unknown transaction model %q (valid: %s)",
		name, strings.Join(modelOrder, ", "))
}
