package router

import (
	"math/bits"
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
// injection at a local port (which may also be an I/O packet, routed in
// the deadlock-free channels only), to a random destination
// (self-addressed packets exit locally). onTick, when non-nil, runs after
// every router clock edge. It returns the harness once the engine has
// drained and the number of packets the router accepted.
func fuzzRouter(t *testing.T, kind core.Kind, seed uint16, onTick func(r *Router, now sim.Ticks)) (*harness, int) {
	cfg := DefaultConfig(kind)
	h := newHarness(t, cfg)
	if onTick != nil {
		h.eng.Attach(tickFunc(func(now sim.Ticks) { onTick(h.r, now) }))
	}
	rng := sim.NewRNG(uint64(seed) + 1)
	netClasses := []packet.Class{packet.Request, packet.Forward, packet.BlockResponse, packet.NonBlockResponse}
	injClasses := append(netClasses[:len(netClasses):len(netClasses)], packet.ReadIO, packet.WriteIO)
	netIns := []ports.In{ports.InNorth, ports.InSouth, ports.InEast, ports.InWest}
	localIns := []ports.In{ports.InCache, ports.InMC0, ports.InMC1, ports.InIO}

	sent := 0
	var walk func(at sim.Ticks, remaining int)
	walk = func(at sim.Ticks, remaining int) {
		if remaining == 0 {
			return
		}
		h.eng.Schedule(at, func() {
			dst := int2node(rng.Intn(16))
			if rng.Intn(2) == 0 {
				cl := injClasses[rng.Intn(len(injClasses))]
				p := packet.New(uint64(sent+1), cl, 4, dst, h.eng.Now())
				in := localIns[rng.Intn(len(localIns))]
				if in == ports.InIO && cl.IsIO() && dst == h.r.Node() {
					// The crossbar never joins the I/O input to the I/O
					// output (Figure 5), so this packet could not leave.
					in = ports.InCache
				}
				if h.r.Inject(p, in, h.eng.Now()) {
					sent++
				}
			} else {
				cl := netClasses[rng.Intn(len(netClasses))]
				p := packet.New(uint64(sent+1), cl, 4, dst, h.eng.Now())
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

// TestOccupancyIndexMatchesRings checks the scan indexes against the
// state they summarize: after every clock edge of a random walk, on all
// five algorithms, bit ch of occ[in] is set exactly when ring (in, ch)
// holds a packet, and no buffered packet's output mask hides a move —
// with only output o free, readyMoves returns a move only when o is in
// the mask.
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
			for in := ports.In(0); in < ports.NumIn && ok; in++ {
				for w := r.occ[in]; w != 0 && ok; w &= w - 1 {
					q := &r.queues[in][bits.TrailingZeros32(w)]
					for i := 0; i < q.Len(); i++ {
						pk := q.At(i)
						outs := r.slab.meta[pk].outs
						for o := ports.Out(0); o < ports.NumOut; o++ {
							if len(r.readyMoves(pk, ports.OutMask(0).With(o), nil)) > 0 && !outs.Has(o) {
								t.Errorf("%v seed %d tick %d: packet %d (%v to %d) can move to %v outside its mask %07b",
									kind, seed, now, r.slab.pkt[pk].ID, r.slab.pkt[pk].Class, r.slab.pkt[pk].Dst, o, outs)
								ok = false
							}
						}
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

// TestLeastRecentMatchesMoveToBack checks the stamp-ordered LRU against
// a reference move-to-back list: after random selections, repeatedly
// taking leastRecent from a random occupied set visits its channels in
// the list's front-to-back order.
func TestLeastRecentMatchesMoveToBack(t *testing.T) {
	r, err := New(DefaultConfig(core.KindSPAABase), 5, topology.NewTorus(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	var lists [ports.NumIn][]vc.Channel
	for in := range lists {
		for ch := vc.Channel(0); ch < vc.NumChannels; ch++ {
			lists[in] = append(lists[in], ch)
		}
	}
	rng := sim.NewRNG(7)
	for step := 0; step < 5000; step++ {
		in := ports.In(rng.Intn(int(ports.NumIn)))
		set := uint32(rng.Uint64()) & (1<<vc.NumChannels - 1)
		var want []int
		for _, ch := range lists[in] {
			if set&(1<<ch) != 0 {
				want = append(want, int(ch))
			}
		}
		for i, occ := 0, set; occ != 0; i++ {
			ch := r.leastRecent(in, occ)
			if ch != want[i] {
				t.Fatalf("step %d, %v, set %019b: visit %d is channel %d, want %d (order %v)",
					step, in, set, i, ch, want[i], want)
			}
			occ &^= 1 << ch
		}
		ch := vc.Channel(rng.Intn(vc.NumChannels))
		r.touchVC(in, ch)
		l := lists[in]
		for i, c := range l {
			if c == ch {
				copy(l[i:], l[i+1:])
				l[len(l)-1] = ch
				break
			}
		}
	}
}

func int2node(v int) topology.Node { return topology.Node(v) }
