package router

import (
	"testing"
	"testing/quick"

	"alpha21364/internal/core"
	"alpha21364/internal/packet"
	"alpha21364/internal/ports"
	"alpha21364/internal/sim"
	"alpha21364/internal/topology"
	"alpha21364/internal/vc"
)

// routerKinds are the five algorithms the timing router runs.
var routerKinds = []core.Kind{core.KindSPAABase, core.KindSPAARotary, core.KindPIM1, core.KindWFABase, core.KindWFARotary}

// tickFunc adapts a function to sim.Clocked.
type tickFunc func(now sim.Ticks)

func (f tickFunc) Tick(now sim.Ticks) { f(now) }

// fuzzRouter drives a harnessed router of the given kind through a random
// walk of 25 packet offers, 0-39 router cycles apart: each offer is a
// network arrival on a port consistent with minimal routing or an
// injection at a local port, to a random destination (self-addressed
// packets exit locally). onTick, when non-nil, runs after every router
// clock edge. It returns the harness once the engine has drained and the
// number of packets the router accepted.
func fuzzRouter(t *testing.T, kind core.Kind, seed uint16, onTick func(r *Router, now sim.Ticks)) (*harness, int) {
	cfg := DefaultConfig(kind)
	h := newHarness(t, cfg)
	if onTick != nil {
		h.eng.Attach(tickFunc(func(now sim.Ticks) { onTick(h.r, now) }))
	}
	rng := sim.NewRNG(uint64(seed) + 1)
	classes := []packet.Class{packet.Request, packet.Forward, packet.BlockResponse, packet.NonBlockResponse}
	netIns := []ports.In{ports.InNorth, ports.InSouth, ports.InEast, ports.InWest}
	localIns := []ports.In{ports.InCache, ports.InMC0, ports.InMC1, ports.InIO}

	sent := 0
	var walk func(at sim.Ticks, remaining int)
	walk = func(at sim.Ticks, remaining int) {
		if remaining == 0 {
			return
		}
		h.eng.Schedule(at, func() {
			cl := classes[rng.Intn(len(classes))]
			dst := int2node(rng.Intn(16))
			p := packet.New(uint64(sent+1), cl, 4, dst, h.eng.Now())
			if rng.Intn(2) == 0 {
				if h.r.Inject(p, localIns[rng.Intn(len(localIns))], h.eng.Now()) {
					sent++
				}
			} else {
				// The arrival port must be consistent with minimal
				// routing: a packet never arrives on the port it would
				// have to exit through (no 180-degree turns exist on
				// minimal paths).
				dirs := h.r.torus.ProductiveDirs(h.r.Node(), dst)
				var legal []ports.In
				for _, in := range netIns {
					ok := true
					for _, d := range dirs {
						if ports.OutForDir(d) == ports.Out(in) {
							ok = false
						}
					}
					if ok {
						legal = append(legal, in)
					}
				}
				in := legal[rng.Intn(len(legal))]
				if h.r.Buffered() < 100 {
					h.r.Arrive(p, in, vc.Of(cl, vc.Adaptive), h.eng.Now(), nil)
					sent++
				}
			}
			walk(h.eng.Now()+sim.Ticks(rng.Intn(40))*cfg.RouterPeriod, remaining-1)
		})
	}
	walk(0, 25)
	h.eng.Run(100000)
	return h, sent
}

// TestRouterFuzzArrivals throws randomized arrival and injection
// sequences at a single router across all five algorithms and checks
// structural invariants: every accepted packet eventually leaves (no
// loss, no duplication), and nothing panics.
func TestRouterFuzzArrivals(t *testing.T) {
	f := func(seed uint16, kindSel uint8) bool {
		h, sent := fuzzRouter(t, routerKinds[int(kindSel)%len(routerKinds)], seed, nil)
		got := len(h.departures) + len(h.deliveries)
		return got == sent && h.r.Buffered() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestOccupancyIndexMatchesRings checks the occupancy index against the
// rings it summarizes: after every clock edge of a random walk, on all
// five algorithms, bit ch of occ[in] is set exactly when ring (in, ch)
// holds a packet.
func TestOccupancyIndexMatchesRings(t *testing.T) {
	f := func(seed uint16, kindSel uint8) bool {
		kind := routerKinds[int(kindSel)%len(routerKinds)]
		ok := true
		fuzzRouter(t, kind, seed, func(r *Router, now sim.Ticks) {
			for in := ports.In(0); in < ports.NumIn && ok; in++ {
				for ch := vc.Channel(0); ch < vc.NumChannels; ch++ {
					indexed := r.occ[in]&(1<<ch) != 0
					if queued := r.QueueLen(in, ch); indexed != (queued > 0) {
						t.Errorf("%v seed %d tick %d: %v/%v holds %d packets, index bit %v",
							kind, seed, now, in, ch, queued, indexed)
						ok = false
						break
					}
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func int2node(v int) topology.Node { return topology.Node(v) }
