package router

import (
	"strings"
	"testing"

	"alpha21364/internal/core"
	"alpha21364/internal/packet"
	"alpha21364/internal/ports"
	"alpha21364/internal/sim"
	"alpha21364/internal/topology"
	"alpha21364/internal/vc"
)

// departure records one packet leaving on a network port.
type departure struct {
	p            *packet.Packet
	out          ports.Out
	targetCh     vc.Channel
	headerDepart sim.Ticks
}

// delivery records one packet consumed at a local port.
type delivery struct {
	p  *packet.Packet
	at sim.Ticks
}

// harness wires a single router to recording stubs.
type harness struct {
	eng        *sim.Engine
	r          *Router
	departures []departure
	deliveries []delivery
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	torus := topology.NewTorus(4, 4)
	r, err := New(cfg, 5, torus) // node 5 = (1,1)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{eng: sim.NewEngine(), r: r}
	for out := ports.Out(0); out < ports.NumOut; out++ {
		out := out
		if out.IsNetwork() {
			r.ConnectNetwork(out, SendFunc(func(p *packet.Packet, ch vc.Channel, depart sim.Ticks, home *vc.Credits) {
				h.departures = append(h.departures, departure{p, out, ch, depart})
				// Return the credit as if the neighbor forwarded instantly,
				// unless a test wants to hold it.
				home.Release(ch)
			}))
		} else {
			r.ConnectLocal(out, func(p *packet.Packet, at sim.Ticks) {
				h.deliveries = append(h.deliveries, delivery{p, at})
			})
		}
	}
	h.eng.AddClock(cfg.RouterPeriod, 0, r)
	return h
}

func TestConfigValidation(t *testing.T) {
	for _, k := range []core.Kind{core.KindMCM, core.KindPIM, core.KindOPF} {
		cfg := DefaultConfig(core.KindSPAABase)
		cfg.Kind = k
		if _, err := New(cfg, 0, topology.NewTorus(4, 4)); err == nil {
			t.Errorf("%v accepted by timing router; it is standalone-only", k)
		}
	}
	cfg := DefaultConfig(core.KindSPAABase)
	cfg.Window = 0
	if err := cfg.Validate(); err == nil {
		t.Error("Window=0 accepted")
	}
}

func TestPinToPinCycles(t *testing.T) {
	if got := DefaultConfig(core.KindSPAABase).PinToPinCycles(); got != 13 {
		t.Errorf("SPAA pin-to-pin = %d cycles, want 13 (paper §2.2)", got)
	}
	if got := DefaultConfig(core.KindWFABase).PinToPinCycles(); got != 14 {
		t.Errorf("WFA pin-to-pin = %d cycles, want 14 (one extra arbitration cycle)", got)
	}
	if got := DefaultConfig(core.KindPIM1).PinToPinCycles(); got != 14 {
		t.Errorf("PIM1 pin-to-pin = %d cycles, want 14", got)
	}
}

func TestScalePipeline(t *testing.T) {
	cfg := DefaultConfig(core.KindSPAARotary).ScalePipeline()
	if cfg.RouterPeriod != sim.FastRouterPeriod {
		t.Errorf("scaled period = %d, want %d", cfg.RouterPeriod, sim.FastRouterPeriod)
	}
	if cfg.ArbCycles != 6 {
		t.Errorf("scaled SPAA arbitration = %d cycles, want 6 (paper §5.3)", cfg.ArbCycles)
	}
	if cfg.InitInterval != 1 {
		t.Errorf("scaled SPAA II = %d, want 1 (still pipelined)", cfg.InitInterval)
	}
	w := DefaultConfig(core.KindWFARotary).ScalePipeline()
	if w.ArbCycles != 8 || w.InitInterval != 6 {
		t.Errorf("scaled WFA = %d cycles / II %d, want 8 / 6", w.ArbCycles, w.InitInterval)
	}
	// Wall-clock pin-to-pin is preserved by the frequency doubling up to
	// one (fast) cycle of stage-boundary rounding.
	base := DefaultConfig(core.KindSPAARotary)
	baseT := base.RouterPeriod * sim.Ticks(base.PinToPinCycles())
	scaledT := cfg.RouterPeriod * sim.Ticks(cfg.PinToPinCycles())
	if diff := scaledT - baseT; diff < -cfg.RouterPeriod || diff > cfg.RouterPeriod {
		t.Errorf("2x pipeline pin-to-pin %d ticks vs base %d ticks", scaledT, baseT)
	}
}

// TestSPAAPinToPinLatency checks the zero-contention forwarding latency:
// a packet arriving on a network input departs a network output 13 router
// cycles later (10.8 ns at 1.2 GHz).
func TestSPAAPinToPinLatency(t *testing.T) {
	cfg := DefaultConfig(core.KindSPAABase)
	h := newHarness(t, cfg)
	// Node 5 = (1,1); destination (3,1) = node 7 is two hops east: the
	// packet arrives from the west side and continues east.
	p := packet.New(1, packet.Request, 4, 7, 0)
	h.eng.Schedule(0, func() {
		h.r.Arrive(p, ports.InWest, vc.Of(packet.Request, vc.Adaptive), 0, nil)
	})
	h.eng.Run(400)
	if len(h.departures) != 1 {
		t.Fatalf("departures = %d, want 1", len(h.departures))
	}
	d := h.departures[0]
	if d.out != ports.OutEast {
		t.Errorf("departed via %v, want east", d.out)
	}
	want := sim.Ticks(13) * cfg.RouterPeriod
	if d.headerDepart != want {
		t.Errorf("header depart = %v (%d ticks), want 13 cycles (%d ticks)",
			d.headerDepart, d.headerDepart, want)
	}
}

func TestWavePinToPinLatency(t *testing.T) {
	for _, kind := range []core.Kind{core.KindWFABase, core.KindPIM1} {
		cfg := DefaultConfig(kind)
		h := newHarness(t, cfg)
		p := packet.New(1, packet.Request, 4, 7, 0)
		h.eng.Schedule(0, func() {
			h.r.Arrive(p, ports.InWest, vc.Of(packet.Request, vc.Adaptive), 0, nil)
		})
		h.eng.Run(400)
		if len(h.departures) != 1 {
			t.Fatalf("%v: departures = %d, want 1", kind, len(h.departures))
		}
		// Eligible at cycle 6, wave starts at cycle 6 (multiple of II=3),
		// GA 3 cycles later, header on pin PostArb after: 14 cycles.
		want := sim.Ticks(14) * cfg.RouterPeriod
		if got := h.departures[0].headerDepart; got != want {
			t.Errorf("%v: header depart = %d ticks, want %d (14 cycles)", kind, got, want)
		}
	}
}

func TestLocalDelivery(t *testing.T) {
	cfg := DefaultConfig(core.KindSPAABase)
	h := newHarness(t, cfg)
	p := packet.New(2, packet.BlockResponse, 4, 5, 0) // destined for this node
	h.eng.Schedule(0, func() {
		h.r.Arrive(p, ports.InWest, vc.Of(packet.BlockResponse, vc.Adaptive), 0, nil)
	})
	h.eng.Run(1000)
	if len(h.deliveries) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(h.deliveries))
	}
	if len(h.departures) != 0 {
		t.Fatalf("locally-addressed packet departed on a network port")
	}
	// Last flit no earlier than header path + 18 more flits at router clock.
	min := sim.Ticks(13+18) * cfg.RouterPeriod
	if h.deliveries[0].at < min {
		t.Errorf("19-flit delivery at %d ticks, want >= %d", h.deliveries[0].at, min)
	}
}

func TestLocalPortInterleaving(t *testing.T) {
	// Packets interleave across the two MC ports by ID; I/O packets use the
	// I/O port.
	if localOut(packet.New(2, packet.Request, 0, 0, 0)) != ports.OutMC0 {
		t.Error("even ID should use MC0")
	}
	if localOut(packet.New(3, packet.Request, 0, 0, 0)) != ports.OutMC1 {
		t.Error("odd ID should use MC1")
	}
	if localOut(packet.New(2, packet.ReadIO, 0, 0, 0)) != ports.OutIO {
		t.Error("I/O class should use the I/O port")
	}
}

func TestInjectionBackpressure(t *testing.T) {
	cfg := DefaultConfig(core.KindSPAABase)
	cfg.Buffers = uniformBuffers(2)
	h := newHarness(t, cfg)
	ok1 := h.r.Inject(packet.New(1, packet.Request, 5, 6, 0), ports.InCache, 0)
	ok2 := h.r.Inject(packet.New(2, packet.Request, 5, 6, 0), ports.InCache, 0)
	ok3 := h.r.Inject(packet.New(3, packet.Request, 5, 6, 0), ports.InCache, 0)
	if !ok1 || !ok2 {
		t.Fatal("first two injections should fit the 2-packet adaptive channel")
	}
	if ok3 {
		t.Fatal("third injection should be rejected (buffer full)")
	}
	if got := h.r.InjectionSpace(ports.InCache, packet.Request, 6); got != 0 {
		t.Errorf("InjectionSpace = %d, want 0", got)
	}
	// After the router forwards one packet, space opens up again.
	h.eng.Run(300)
	if h.r.InjectionSpace(ports.InCache, packet.Request, 6) == 0 {
		t.Error("no space after forwarding")
	}
}

// TestSPAACollisionAndRetry drives two input ports at one output: one
// packet wins, the other is reset (a wasted speculative read) and retried.
func TestSPAACollisionAndRetry(t *testing.T) {
	cfg := DefaultConfig(core.KindSPAABase)
	h := newHarness(t, cfg)
	// Both packets must go east (destination (3,1) = node 7, same row).
	reqCh := vc.Of(packet.Request, vc.Adaptive)
	h.eng.Schedule(0, func() {
		h.r.Arrive(packet.New(1, packet.Request, 4, 7, 0), ports.InWest, reqCh, 0, nil)
		h.r.Arrive(packet.New(2, packet.Request, 1, 7, 0), ports.InNorth, reqCh, 0, nil)
	})
	h.eng.Run(2000)
	if len(h.departures) != 2 {
		t.Fatalf("departures = %d, want 2", len(h.departures))
	}
	if h.r.Counters.WastedSpecReads == 0 {
		t.Error("expected an arbitration collision (wasted speculative read)")
	}
	// The loser departs only after the winner's 3 flits clear the port.
	gap := h.departures[1].headerDepart - h.departures[0].headerDepart
	if gap < 3*cfg.LinkPeriod {
		t.Errorf("second departure only %d ticks after first; link still busy", gap)
	}
}

// TestSPAAPipelining verifies SPAA sustains one grant per output port as
// fast as the port drains, while WFA's 3-cycle initiation interval limits
// it — the paper's core timing argument.
func TestSPAAPipelining(t *testing.T) {
	count := func(kind core.Kind) int {
		cfg := DefaultConfig(kind)
		cfg.Buffers.SpecialBufs = 64 // room for the test's 1-flit burst
		h := newHarness(t, cfg)
		// Saturate with 1-flit special packets from two inputs to one
		// output so the initiation interval, not port busy time, binds.
		spCh := vc.Of(packet.Special, vc.Adaptive)
		h.eng.Schedule(0, func() {
			for i := 0; i < 40; i++ {
				in := ports.InWest
				if i%2 == 1 {
					in = ports.InNorth
				}
				h.r.Arrive(packet.New(uint64(i), packet.Special, 4, 7, 0), in, spCh, 0, nil)
			}
		})
		h.eng.Run(100 * cfg.RouterPeriod)
		return len(h.departures)
	}
	spaa := count(core.KindSPAABase)
	wfa := count(core.KindWFABase)
	if spaa <= wfa {
		t.Fatalf("SPAA dispatched %d vs WFA %d; pipelining should win", spaa, wfa)
	}
}

func TestCreditBackpressureBlocksDispatch(t *testing.T) {
	cfg := DefaultConfig(core.KindSPAABase)
	torus := topology.NewTorus(4, 4)
	r, err := New(cfg, 5, torus)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	var departs int
	for out := ports.Out(0); out < ports.NumOut; out++ {
		if out.IsNetwork() {
			r.ConnectNetwork(out, SendFunc(func(p *packet.Packet, ch vc.Channel, at sim.Ticks, home *vc.Credits) {
				departs++ // never release credits: downstream stays full
			}))
		} else {
			r.ConnectLocal(out, func(p *packet.Packet, at sim.Ticks) {})
		}
	}
	eng.AddClock(cfg.RouterPeriod, 0, r)
	// Leave the east port exactly one adaptive and one VC0 credit; zero VC1.
	adaptive := vc.Of(packet.Request, vc.Adaptive)
	vc0 := vc.Of(packet.Request, vc.VC0)
	vc1 := vc.Of(packet.Request, vc.VC1)
	cr := r.OutputCredits(ports.OutEast)
	for cr.Free(adaptive) > 1 {
		cr.Reserve(adaptive)
	}
	for cr.Free(vc1) > 0 {
		cr.Reserve(vc1)
	}
	_ = vc0 // capacity is already one
	eng.Schedule(0, func() {
		// Three eastbound packets; credits allow only two dispatches
		// (1 adaptive + 1 deadlock-free escape), then stall.
		for i := 0; i < 3; i++ {
			r.Arrive(packet.New(uint64(i), packet.Request, 4, 7, 0), ports.InWest,
				vc.Of(packet.Request, vc.Adaptive), 0, nil)
		}
	})
	eng.Run(3000)
	if departs != 2 {
		t.Fatalf("departs = %d, want 2 (credit-limited)", departs)
	}
	if r.Buffered() != 1 {
		t.Fatalf("buffered = %d, want 1 stalled packet", r.Buffered())
	}
}

func TestAdaptiveFallsBackToDeadlockFree(t *testing.T) {
	// With zero adaptive credits downstream, packets must escape via
	// VC0/VC1 in dimension order.
	cfg := DefaultConfig(core.KindSPAABase)
	h := newHarness(t, cfg)
	adaptive := vc.Of(packet.Request, vc.Adaptive)
	// Exhaust east-port adaptive credits.
	cr := h.r.OutputCredits(ports.OutEast)
	for cr.Available(adaptive) {
		cr.Reserve(adaptive)
	}
	h.eng.Schedule(0, func() {
		h.r.Arrive(packet.New(1, packet.Request, 4, 7, 0), ports.InWest, adaptive, 0, nil)
	})
	h.eng.Run(500)
	if len(h.departures) != 1 {
		t.Fatalf("departures = %d, want 1", len(h.departures))
	}
	if got := h.departures[0].targetCh; got != vc.Of(packet.Request, vc.VC0) {
		t.Errorf("target channel = %v, want request/vc0 escape", got)
	}
}

func TestIOPacketsUseDeadlockFreeOnly(t *testing.T) {
	cfg := DefaultConfig(core.KindSPAABase)
	h := newHarness(t, cfg)
	h.eng.Schedule(0, func() {
		if !h.r.Inject(packet.New(1, packet.ReadIO, 5, 7, 0), ports.InIO, 0) {
			t.Error("I/O injection rejected")
		}
	})
	h.eng.Run(500)
	if len(h.departures) != 1 {
		t.Fatalf("departures = %d, want 1", len(h.departures))
	}
	if ch := h.departures[0].targetCh; !ch.IsDeadlockFree() {
		t.Errorf("I/O packet on channel %v; must use deadlock-free channels", ch)
	}
}

func TestAntiStarvationDrain(t *testing.T) {
	cfg := DefaultConfig(core.KindSPAABase)
	cfg.AntiStarvationAge = 20
	cfg.AntiStarvationThreshold = 1
	h := newHarness(t, cfg)
	adaptive := vc.Of(packet.Request, vc.Adaptive)
	vc0 := vc.Of(packet.Request, vc.VC0)
	vc1 := vc.Of(packet.Request, vc.VC1)
	// Exhaust all east-bound credits so eastbound packets cannot move.
	cr := h.r.OutputCredits(ports.OutEast)
	for _, ch := range []vc.Channel{adaptive, vc0, vc1} {
		for cr.Available(ch) {
			cr.Reserve(ch)
		}
	}
	h.eng.Schedule(0, func() {
		for i := 0; i < 3; i++ {
			h.r.Arrive(packet.New(uint64(i), packet.Request, 4, 7, 0), ports.InWest, adaptive, 0, nil)
		}
	})
	h.eng.Run(30 * cfg.RouterPeriod)
	if !h.r.Draining() {
		t.Fatal("blocked old packets did not trigger the drain")
	}
	if h.r.Counters.DrainEntries == 0 {
		t.Error("DrainEntries counter not incremented")
	}
	// Free the credits: the old packets drain and the mode clears.
	h.eng.Schedule(h.eng.Now()+1, func() {
		for _, ch := range []vc.Channel{adaptive, vc0, vc1} {
			cr.Release(ch)
			cr.Release(ch)
		}
	})
	h.eng.Run(h.eng.Now() + 100*cfg.RouterPeriod)
	if h.r.Draining() {
		t.Error("drain mode did not clear after old packets left")
	}
	if len(h.departures) == 0 {
		t.Error("no packets departed after credits freed")
	}
}

func TestArriveOverflowPanics(t *testing.T) {
	cfg := DefaultConfig(core.KindSPAABase)
	cfg.Buffers = uniformBuffers(1)
	r, _ := New(cfg, 5, topology.NewTorus(4, 4))
	ch := vc.Of(packet.Request, vc.Adaptive)
	r.Arrive(packet.New(1, packet.Request, 4, 7, 0), ports.InWest, ch, 0, nil)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "buffer overflow on L-W/request/adaptive") {
			t.Errorf("over-capacity Arrive panicked with %q, want the router's buffer-overflow message", msg)
		}
	}()
	r.Arrive(packet.New(2, packet.Request, 4, 7, 0), ports.InWest, ch, 0, nil)
}

func TestCountersConservation(t *testing.T) {
	cfg := DefaultConfig(core.KindSPAABase)
	h := newHarness(t, cfg)
	// Self-addressed packets: injected == delivered locally.
	h.eng.Schedule(0, func() {
		for i := 0; i < 20; i++ {
			if !h.r.Inject(packet.New(uint64(i), packet.Request, 5, 5, 0), ports.InCache, 0) {
				t.Fatalf("injection %d rejected", i)
			}
		}
	})
	h.eng.Run(5000)
	if len(h.deliveries) != 20 {
		t.Fatalf("deliveries = %d, want 20", len(h.deliveries))
	}
	if h.r.Buffered() != 0 {
		t.Errorf("buffered = %d after drain, want 0", h.r.Buffered())
	}
	c := h.r.Counters
	if c.Injected != 20 || c.DeliveredLocal != 20 || c.Grants != 20 {
		t.Errorf("counters inconsistent: %+v", c)
	}
}

func TestWaveLocking(t *testing.T) {
	// During a PIM1 wave, nominated packets must not be re-nominated until
	// the wave resolves; all packets still dispatch eventually.
	cfg := DefaultConfig(core.KindPIM1)
	h := newHarness(t, cfg)
	reqCh := vc.Of(packet.Request, vc.Adaptive)
	h.eng.Schedule(0, func() {
		for i := 0; i < 10; i++ {
			h.r.Arrive(packet.New(uint64(i), packet.Request, 4, 7, 0), ports.InWest, reqCh, 0, nil)
		}
	})
	h.eng.Run(5000)
	if len(h.departures) != 10 {
		t.Fatalf("departures = %d, want 10", len(h.departures))
	}
	// Departures respect the east port's serialization.
	for i := 1; i < len(h.departures); i++ {
		gap := h.departures[i].headerDepart - h.departures[i-1].headerDepart
		if gap < 3*cfg.LinkPeriod {
			t.Errorf("departure %d only %d ticks after previous", i, gap)
		}
	}
}

func TestRotaryPrioritizesNetworkTraffic(t *testing.T) {
	// One network packet and one local packet compete for the east port
	// within the same GA round; under SPAA-rotary the network packet wins.
	cfg := DefaultConfig(core.KindSPAARotary)
	h := newHarness(t, cfg)
	reqCh := vc.Of(packet.Request, vc.Adaptive)
	h.eng.Schedule(0, func() {
		h.r.Arrive(packet.New(1, packet.Request, 4, 7, 0), ports.InWest, reqCh, 0, nil)
	})
	// Inject the local packet so both become eligible at the same LA tick:
	// network eligible at 0+6 cycles; local injected at cycle 3 is eligible
	// at 3+3 = 6.
	h.eng.Schedule(3*cfg.RouterPeriod, func() {
		h.r.Inject(packet.New(2, packet.Request, 5, 7, 0), ports.InCache, h.eng.Now())
	})
	h.eng.Run(3000)
	if len(h.departures) != 2 {
		t.Fatalf("departures = %d, want 2", len(h.departures))
	}
	if h.departures[0].p.ID != 1 {
		t.Errorf("first departure is packet %d; rotary should dispatch the network packet first",
			h.departures[0].p.ID)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []departure {
		cfg := DefaultConfig(core.KindPIM1)
		h := newHarness(t, cfg)
		reqCh := vc.Of(packet.Request, vc.Adaptive)
		h.eng.Schedule(0, func() {
			for i := 0; i < 30; i++ {
				in := []ports.In{ports.InWest, ports.InNorth, ports.InSouth}[i%3]
				dst := []topology.Node{7, 6, 9, 13}[i%4]
				h.r.Arrive(packet.New(uint64(i), packet.Request, 4, dst, 0), in, reqCh, 0, nil)
			}
		})
		h.eng.Run(10000)
		return h.departures
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].p.ID != b[i].p.ID || a[i].headerDepart != b[i].headerDepart {
			t.Fatalf("replay diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// uniformBuffers builds a buffer config with the same adaptive capacity
// for every class.
func uniformBuffers(n int) vc.Config {
	var cfg vc.Config
	for cl := packet.Class(0); cl < packet.Special; cl++ {
		cfg.Adaptive[cl] = n
	}
	cfg.DeadlockPerClass = 1
	cfg.SpecialBufs = 1
	return cfg
}
