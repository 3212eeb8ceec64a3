// Package network assembles 21364 routers into the 2D-torus interconnect
// of the paper's timing model: one router per processor, four inter-router
// links per router running at 0.8 GHz with a three-network-clock wire
// latency, and local ports wired to the processor model's sinks.
package network

import (
	"fmt"

	"alpha21364/internal/obs"
	"alpha21364/internal/packet"
	"alpha21364/internal/ports"
	"alpha21364/internal/router"
	"alpha21364/internal/sim"
	"alpha21364/internal/stats"
	"alpha21364/internal/topology"
	"alpha21364/internal/vc"
)

// Config describes a torus network build.
type Config struct {
	Width, Height int
	Router        router.Config
}

// DeliverHandler observes every packet consumed at a destination local
// port (after statistics are recorded). The traffic generator uses it to
// advance coherence transactions.
type DeliverHandler func(p *packet.Packet, at sim.Ticks)

// Network is a torus of routers bound to a simulation engine.
type Network struct {
	cfg       Config
	torus     topology.Torus
	eng       *sim.Engine
	routers   []*router.Router
	collector *stats.Collector
	onDeliver DeliverHandler
	// deliverH is the registered sink handler: local-port deliveries post
	// through it instead of allocating a closure per packet.
	deliverH sim.HandlerID
	// links holds every directed link, link node*4+d leaving node toward
	// direction d; linkH is the one registered handler that receives a
	// flight on any of them.
	links []link
	linkH sim.HandlerID
	// flight counts packets dispatched onto a link but not yet committed
	// to the neighbor's buffer (conservation accounting).
	flight int64
	// metrics, when non-nil, receives link and sink telemetry (nil-checked
	// on the hot path, exactly like the router's hooks); linkBusyPerFlit
	// is the wire serialization time per flit it charges.
	metrics         *obs.NetworkMetrics
	linkBusyPerFlit sim.Ticks
}

// link is one directed inter-router wire and the router.Sender of the
// output port it leaves from: wiring the port stores the *link, so a
// build allocates nothing per link beyond the one links slice. Every
// link's flights go through the network's one registered link handler,
// so a packet flight costs one pooled event node and no allocation: the
// payload is the packet pointer, the arrival tick, and the link index
// next to the target channel (B = idx<<8 | ch); everything else
// (neighbor, input port, upstream credit pool) is fixed per link.
type link struct {
	n        *Network
	neighbor *router.Router
	in       ports.In
	latency  sim.Ticks
	credits  *vc.Credits // the sending output port's pool
	idx      int         // index into n.links and the per-link metrics
}

// Send implements router.Sender. The router passes its output port's
// credit pool, which buildNetwork stored as l.credits, so linkArrive
// releases into l.credits and the creditHome argument is unused.
func (l *link) Send(p *packet.Packet, targetCh vc.Channel, headerDepart sim.Ticks, _ *vc.Credits) {
	arriveAt := headerDepart + l.latency
	l.n.flight++
	if m := l.n.metrics; m != nil {
		lm := &m.Links[l.idx]
		lm.Packets++
		lm.Flits += int64(p.Flits)
		lm.BusyTicks += int64(p.Flits) * int64(l.n.linkBusyPerFlit)
	}
	l.n.eng.Post(arriveAt, l.n.linkH, sim.EventArgs{
		A: int64(arriveAt), B: int64(l.idx)<<8 | int64(targetCh), P: p,
	})
}

// linkArrive is the registered receive handler of every link.
func (n *Network) linkArrive(args sim.EventArgs) {
	l := &n.links[args.B>>8]
	n.flight--
	l.neighbor.Arrive(args.P.(*packet.Packet), l.in, vc.Channel(args.B&0xff), sim.Ticks(args.A), l.credits)
}

// New builds and wires the network and registers its router clock edge,
// tickRouters, as one clock domain on eng. Deliveries are recorded into
// collector.
func New(cfg Config, eng *sim.Engine, collector *stats.Collector) (*Network, error) {
	n, err := buildNetwork(cfg, eng, collector)
	if err != nil {
		return nil, err
	}
	eng.AddClock(cfg.Router.RouterPeriod, 0, clockFunc(n.tickRouters))
	return n, nil
}

// clockFunc adapts a function to sim.Clocked.
type clockFunc func(now sim.Ticks)

func (f clockFunc) Tick(now sim.Ticks) { f(now) }

// tickRouters is the router clock edge: every router ticks, in node
// order. A router's tick releases credits into its upstream neighbors'
// pools, so the order is part of the simulated behaviour.
func (n *Network) tickRouters(now sim.Ticks) {
	for _, r := range n.routers {
		r.Tick(now)
	}
}

// buildNetwork constructs and wires routers, links, and sinks, with
// every event on eng.
func buildNetwork(cfg Config, eng *sim.Engine, collector *stats.Collector) (*Network, error) {
	torus := topology.NewTorus(cfg.Width, cfg.Height)
	n := &Network{
		cfg:       cfg,
		torus:     torus,
		eng:       eng,
		collector: collector,
		routers:   make([]*router.Router, torus.Nodes()),
	}
	for node := 0; node < torus.Nodes(); node++ {
		r, err := router.New(cfg.Router, topology.Node(node), torus)
		if err != nil {
			return nil, fmt.Errorf("network: node %d: %w", node, err)
		}
		n.routers[node] = r
	}
	n.deliverH = eng.RegisterHandler(n.deliverEvent)
	n.linkH = eng.RegisterHandler(n.linkArrive)
	sink := n.sink
	linkLatency := sim.Ticks(cfg.Router.LinkLatencyCycles) * cfg.Router.LinkPeriod
	n.links = make([]link, n.NumLinks())
	for node := 0; node < torus.Nodes(); node++ {
		r := n.routers[node]
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			out := ports.OutForDir(d)
			dst := torus.Neighbor(topology.Node(node), d)
			idx := node*int(topology.NumDirs) + int(d)
			l := &n.links[idx]
			*l = link{
				n:        n,
				neighbor: n.routers[dst],
				in:       ports.InFromDir(d.Opposite()),
				latency:  linkLatency,
				idx:      idx,
			}
			r.ConnectNetwork(out, l)
			l.credits = r.OutputCredits(out)
		}
		for _, out := range []ports.Out{ports.OutMC0, ports.OutMC1, ports.OutIO} {
			r.ConnectLocal(out, sink)
		}
	}
	return n, nil
}

// sink is the DeliverFunc of every local output port: the delivery is
// posted through the registered sink handler, which records statistics
// and notifies the traffic model at the time the last flit reaches the
// processor.
func (n *Network) sink(p *packet.Packet, at sim.Ticks) {
	n.eng.Post(at, n.deliverH, sim.EventArgs{A: int64(at), P: p})
}

// deliverEvent is the registered sink handler.
func (n *Network) deliverEvent(args sim.EventArgs) {
	p := args.P.(*packet.Packet)
	at := sim.Ticks(args.A)
	n.collector.Delivered(p, at)
	if m := n.metrics; m != nil {
		m.Delivered++
		m.DeliveredFlits += int64(p.Flits)
	}
	if n.onDeliver != nil {
		n.onDeliver(p, at)
	}
}

// OnDeliver installs the delivery observer (at most one; the traffic
// generator).
func (n *Network) OnDeliver(h DeliverHandler) {
	if n.onDeliver != nil {
		panic("network: delivery handler already installed")
	}
	n.onDeliver = h
}

// Torus returns the network's topology.
func (n *Network) Torus() topology.Torus { return n.torus }

// Nodes returns the number of routers.
func (n *Network) Nodes() int { return len(n.routers) }

// Router returns the router at a node.
func (n *Network) Router(node topology.Node) *router.Router { return n.routers[node] }

// Inject offers a packet to a node's local input port, returning false on
// backpressure.
func (n *Network) Inject(p *packet.Packet, node topology.Node, in ports.In, now sim.Ticks) bool {
	return n.routers[node].Inject(p, in, now)
}

// LinkFlight returns the number of packets dispatched onto inter-router
// links but not yet committed to the neighbor's buffer; the invariant
// oracle's conservation check uses it.
func (n *Network) LinkFlight() int64 { return n.flight }

// NumLinks returns the number of directed inter-router links (four per
// router) — the size SetMetrics expects m.Links to have.
func (n *Network) NumLinks() int { return len(n.routers) * int(topology.NumDirs) }

// SetMetrics installs the network-level telemetry block, sizing its
// per-link slice if needed (this is install-time, not hot-path). Pass
// nil to disable.
func (n *Network) SetMetrics(m *obs.NetworkMetrics) {
	if m != nil && len(m.Links) != n.NumLinks() {
		m.Links = make([]obs.LinkMetrics, n.NumLinks())
	}
	n.metrics = m
	n.linkBusyPerFlit = n.cfg.Router.LinkPeriod
}

// Buffered returns the total packets buffered across all routers.
func (n *Network) Buffered() int {
	total := 0
	for _, r := range n.routers {
		total += r.Buffered()
	}
	return total
}

// TotalCounters sums the per-router counters.
func (n *Network) TotalCounters() router.Counters {
	var t router.Counters
	for _, r := range n.routers {
		c := r.Counters
		t.Injected += c.Injected
		t.Arrived += c.Arrived
		t.Nominations += c.Nominations
		t.Grants += c.Grants
		t.Collisions += c.Collisions
		t.WastedSpecReads += c.WastedSpecReads
		t.DrainEntries += c.DrainEntries
		t.DeliveredLocal += c.DeliveredLocal
	}
	return t
}
