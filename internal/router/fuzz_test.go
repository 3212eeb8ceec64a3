package router

import (
	"fmt"
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
// every router clock edge, in a second clock domain of the same period.
// It returns the harness once the engine has drained and the number of
// packets the router accepted.
func fuzzRouter(t *testing.T, kind core.Kind, seed uint16, onTick func(r *Router, now sim.Ticks)) (*harness, int) {
	cfg := DefaultConfig(kind)
	h := newHarness(t, cfg)
	if onTick != nil {
		h.eng.AddClock(cfg.RouterPeriod, 0, tickFunc(func(now sim.Ticks) { onTick(h.r, now) }))
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
				route := h.torus.Route(h.r.Node(), dst)
				var legal []ports.In
				for _, in := range netIns {
					ok := true
					for _, d := range route.Dirs[:route.NDirs] {
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

// checkScanIndexes checks the scan indexes against the state they
// summarize, reporting each mismatch: bit ch of occ[in] is set exactly
// when queue (in, ch) holds a packet, and bit in of occIns exactly when
// occ[in] is non-zero; each queue's links lead from its head to its tail
// through its length in packets, in non-decreasing header arrival (the
// order findNomination's early stop relies on); no buffered packet's
// output mask hides a move (with only output o free, readyMoves returns
// a move only when o is in the mask); winOuts[in][ch] is the union of
// the output masks of the queue's first Window packets, and inOuts[in]
// the union of in's summaries; oldAt is at or below the tick at which
// each of those packets that is not yet old turns old; the busy-output
// mask yields the free set a compare of every output's busy time gives
// at the next LA threshold; and, with no wave active, the wave matrix
// holds no valid cell and waveRows is empty.
func checkScanIndexes(t *testing.T, r *Router, label string, now sim.Ticks) bool {
	t.Helper()
	s := &r.slab
	for in := ports.In(0); in < ports.NumIn; in++ {
		if indexed := r.occIns&(1<<in) != 0; indexed != (r.occ[in] != 0) {
			t.Errorf("%s tick %d: %v queue bits %019b, input index bit %v", label, now, in, r.occ[in], indexed)
			return false
		}
		var inWindow ports.OutMask
		for ch := vc.Channel(0); ch < vc.NumChannels; ch++ {
			q := &r.queues[in][ch]
			if indexed := r.occ[in]&(1<<ch) != 0; indexed != (q.Len() > 0) {
				t.Errorf("%s tick %d: %v/%v holds %d packets, index bit %v", label, now, in, ch, q.Len(), indexed)
				return false
			}
			if got := queueContents(s, q); len(got) != q.Len() || (q.Len() > 0 && got[len(got)-1] != q.tail) {
				t.Errorf("%s tick %d: %v/%v links %v from its head, want %d packets ending at its tail %d",
					label, now, in, ch, got, q.Len(), q.tail)
				return false
			}
			var window ports.OutMask
			prev := uint16(nilHandle)
			for i, pk := 0, q.head; i < q.Len(); i, pk = i+1, s.recs[pk].next {
				rec := &s.recs[pk]
				if rec.prev != prev {
					t.Errorf("%s tick %d: %v/%v position %d links back to %d, want %d", label, now, in, ch, i, rec.prev, prev)
					return false
				}
				if i > 0 && rec.headerArrive < s.recs[prev].headerArrive {
					t.Errorf("%s tick %d: %v/%v position %d arrived at %d, before position %d's %d",
						label, now, in, ch, i, rec.headerArrive, i-1, s.recs[prev].headerArrive)
					return false
				}
				prev = pk
				outs := rec.meta.outs
				for o := ports.Out(0); o < ports.NumOut; o++ {
					if len(r.readyMoves(pk, ports.OutMask(0).With(o), nil)) > 0 && !outs.Has(o) {
						t.Errorf("%s tick %d: packet %d (%v to %d) can move to %v outside its mask %07b",
							label, now, rec.pkt.ID, rec.pkt.Class, rec.pkt.Dst, o, outs)
						return false
					}
				}
				if i >= r.cfg.Window {
					continue
				}
				window |= outs
				if oldAt := rec.headerArrive + r.ageTicks; rec.meta.flags&pkOld == 0 && r.oldAt > oldAt {
					t.Errorf("%s tick %d: aging bound %d is past window packet %d (%v/%v position %d), which turns old at %d",
						label, now, r.oldAt, rec.pkt.ID, in, ch, i, oldAt)
					return false
				}
			}
			if r.winOuts[in][ch] != window {
				t.Errorf("%s tick %d: %v/%v window summary %07b, its first %d packets use %07b",
					label, now, in, ch, r.winOuts[in][ch], r.cfg.Window, window)
				return false
			}
			inWindow |= window
		}
		if r.inOuts[in] != inWindow {
			t.Errorf("%s tick %d: %v input summary %07b, its queues' windows use %07b", label, now, in, r.inOuts[in], inWindow)
			return false
		}
	}
	// The next LA stage's grant tick; a wave resolves before the next one
	// is due, so the next build runs at nextWaveAt.
	gaTick := r.nextLA + r.gaOffset
	if r.wave {
		gaTick = r.nextWaveAt + r.waveGaOffset
	}
	var want ports.OutMask
	for out := ports.Out(0); out < ports.NumOut; out++ {
		if r.outFree(out, gaTick) {
			want = want.With(out)
		}
	}
	// freeOutputs refreshes the mask, so ask a copy of the router.
	if c := *r; c.freeOutputs(gaTick) != want {
		t.Errorf("%s tick %d: busy-output mask %07b (next release %d) gives free set %07b at grant tick %d, busy times %d give %07b",
			label, now, r.busyOuts, r.busyNext, c.freeOutputs(gaTick), gaTick, r.busyUntil, want)
		return false
	}
	if r.wave && !r.waveActive && (r.waveRows != 0 || r.matrix.ValidCount() != 0) {
		t.Errorf("%s tick %d: no wave active, yet waveRows is %016b and the matrix holds %d valid cells",
			label, now, r.waveRows, r.matrix.ValidCount())
		return false
	}
	return true
}

// TestOccupancyIndexMatchesRings runs checkScanIndexes after every
// clock edge on all five algorithms: through random walks, and through a
// queue stacked deeper than the picker window whose window turns old
// while an output's downstream credits are held, so that each dispatch
// after their release moves a packet that is not yet old into the
// window.
func TestOccupancyIndexMatchesRings(t *testing.T) {
	f := func(seed uint16, kindSel uint8) bool {
		kind := routerKinds[int(kindSel)%len(routerKinds)]
		ok := true
		fuzzRouter(t, kind, seed, func(r *Router, now sim.Ticks) {
			ok = ok && checkScanIndexes(t, r, fmt.Sprintf("%v seed %d", kind, seed), now)
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}

	const stacked = 12
	for _, kind := range routerKinds {
		cfg := DefaultConfig(kind)
		cfg.AntiStarvationAge = 20
		cfg.AntiStarvationThreshold = 1
		h := newHarness(t, cfg)
		ok := true
		h.eng.AddClock(cfg.RouterPeriod, 0, tickFunc(func(now sim.Ticks) {
			ok = ok && checkScanIndexes(t, h.r, kind.String()+" stacked", now)
		}))
		adaptive := vc.Of(packet.Request, vc.Adaptive)
		east := []vc.Channel{adaptive, vc.Of(packet.Request, vc.VC0), vc.Of(packet.Request, vc.VC1)}
		cr := h.r.OutputCredits(ports.OutEast)
		held := make([]int, len(east))
		for i, ch := range east {
			for cr.Available(ch) {
				cr.Reserve(ch)
				held[i]++
			}
		}
		for i := 0; i < stacked; i++ {
			at := sim.Ticks(i) * cfg.RouterPeriod
			id := uint64(i + 1)
			h.eng.Schedule(at, func() {
				h.r.Arrive(packet.New(id, packet.Request, 4, 7, at), ports.InWest, adaptive, at, nil)
			})
		}
		h.eng.Run(60 * cfg.RouterPeriod)
		if !h.r.Draining() {
			t.Errorf("%v: the stacked window never turned old", kind)
		}
		h.eng.Schedule(h.eng.Now()+1, func() {
			for i, ch := range east {
				for ; held[i] > 0; held[i]-- {
					cr.Release(ch)
				}
			}
		})
		h.eng.Run(h.eng.Now() + 500*cfg.RouterPeriod)
		if len(h.departures) != stacked {
			t.Errorf("%v: %d of %d stacked packets left", kind, len(h.departures), stacked)
		}
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
