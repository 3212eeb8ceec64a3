package router

import (
	"testing"

	"alpha21364/internal/core"
	"alpha21364/internal/packet"
	"alpha21364/internal/ports"
	"alpha21364/internal/sim"
	"alpha21364/internal/topology"
	"alpha21364/internal/vc"
)

// BenchmarkRouterTick measures the router clock edge: one op is one
// router cycle of a single router under a steady offered load (see
// newTickLoad), at a light rate that leaves most queues empty and at a
// saturating rate that keeps the buffers backed up; "buffered" reports
// the packets held at the end. Compare commits with `make bench-router`.
func BenchmarkRouterTick(b *testing.B) {
	loads := []struct {
		name string
		rate float64 // packets offered per input port per cycle
	}{{"light", 0.02}, {"saturated", 0.5}}
	for _, kind := range []core.Kind{core.KindSPAARotary, core.KindWFARotary, core.KindPIM1} {
		for _, load := range loads {
			b.Run(kind.String()+"/"+load.name, func(b *testing.B) {
				r, cycle := newTickLoad(b, DefaultConfig(kind), load.rate)
				// Fill the buffers and grow the slab to its high-water
				// mark before timing.
				for i := 0; i < 2000; i++ {
					cycle()
				}
				b.ReportAllocs()
				for b.Loop() {
					cycle()
				}
				b.ReportMetric(float64(r.Buffered()), "buffered")
			})
		}
	}
}

// newTickLoad builds one router with configuration cfg and returns it
// with a function that runs one router cycle: each of the eight input ports is offered a
// packet of a random class with probability rate, to a uniform random
// destination — injected at local ports, and at network ports arriving
// in its adaptive channel when that queue has space. Network outputs
// return their credit at once and local outputs consume, so only the
// router's own arbitration limits throughput. The whole cycle runs out of
// a packet arena and allocates nothing in steady state.
func newTickLoad(tb testing.TB, cfg Config, rate float64) (*Router, func()) {
	const node = 5
	torus := topology.NewTorus(4, 4)
	r, err := New(cfg, node, torus)
	if err != nil {
		tb.Fatal(err)
	}
	arena := packet.NewArena()
	for out := ports.Out(0); out < ports.NumOut; out++ {
		if out.IsNetwork() {
			r.ConnectNetwork(out, SendFunc(func(p *packet.Packet, ch vc.Channel, _ sim.Ticks, home *vc.Credits) {
				home.Release(ch)
				arena.Release(p)
			}))
		} else {
			r.ConnectLocal(out, func(p *packet.Packet, _ sim.Ticks) { arena.Release(p) })
		}
	}
	// dsts[in] lists the destinations a packet entering on in may have: a
	// network arrival never needs to leave through the port it came in on
	// (minimal paths have no 180-degree turns).
	var dsts [ports.NumIn][]topology.Node
	for in := ports.In(0); in < ports.NumIn; in++ {
	nodes:
		for dst := topology.Node(0); int(dst) < torus.Nodes(); dst++ {
			route := torus.Route(node, dst)
			for _, d := range route.Dirs[:route.NDirs] {
				if in.IsNetwork() && ports.OutForDir(d) == ports.Out(in) {
					continue nodes
				}
			}
			dsts[in] = append(dsts[in], dst)
		}
	}
	classes := []packet.Class{packet.Request, packet.Forward, packet.BlockResponse, packet.NonBlockResponse}
	rng := sim.NewRNG(1)
	now := sim.Ticks(0)
	id := uint64(0)
	return r, func() {
		for in := ports.In(0); in < ports.NumIn; in++ {
			if !rng.Bernoulli(rate) {
				continue
			}
			id++
			cl := classes[rng.Intn(len(classes))]
			p := arena.New(id, cl, node, dsts[in][rng.Intn(len(dsts[in]))], now)
			ch := vc.Of(cl, vc.Adaptive)
			switch {
			case !in.IsNetwork():
				if !r.Inject(p, in, now) {
					arena.Release(p)
				}
			case r.QueueLen(in, ch) < cfg.Buffers.Capacity(ch):
				r.Arrive(p, in, ch, now, nil)
			default:
				arena.Release(p)
			}
		}
		r.Tick(now)
		now += cfg.RouterPeriod
	}
}
