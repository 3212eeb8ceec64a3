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

// TestWaveCadence verifies the wave algorithms' initiation interval: with
// an always-full input, WFA dispatches exactly one packet per 3 cycles on
// a free port fed by 1-flit packets.
func TestWaveCadence(t *testing.T) {
	cfg := DefaultConfig(core.KindWFABase)
	cfg.Buffers.SpecialBufs = 64
	h := newHarness(t, cfg)
	spCh := vc.Of(packet.Special, vc.Adaptive)
	h.eng.Schedule(0, func() {
		for i := 0; i < 30; i++ {
			h.r.Arrive(packet.New(uint64(i), packet.Special, 4, 7, 0), ports.InWest, spCh, 0, nil)
		}
	})
	h.eng.Run(120 * cfg.RouterPeriod)
	if len(h.departures) < 3 {
		t.Fatalf("only %d departures", len(h.departures))
	}
	for i := 1; i < len(h.departures); i++ {
		gap := h.departures[i].headerDepart - h.departures[i-1].headerDepart
		if gap < 3*cfg.RouterPeriod {
			t.Fatalf("wave departures %d apart; initiation interval is 3 cycles", gap)
		}
	}
}

// TestSPAABeatsWaveCadence is the same saturated 1-flit stream under SPAA:
// the every-cycle restart must beat the wave cadence.
func TestSPAABeatsWaveCadence(t *testing.T) {
	depart := func(kind core.Kind) int {
		cfg := DefaultConfig(kind)
		cfg.Buffers.SpecialBufs = 64
		h := newHarness(t, cfg)
		spCh := vc.Of(packet.Special, vc.Adaptive)
		h.eng.Schedule(0, func() {
			for i := 0; i < 40; i++ {
				h.r.Arrive(packet.New(uint64(i), packet.Special, 4, 7, 0), ports.InWest, spCh, 0, nil)
			}
		})
		h.eng.Run(120 * cfg.RouterPeriod)
		return len(h.departures)
	}
	spaa, wfa := depart(core.KindSPAABase), depart(core.KindWFABase)
	// 1-flit packets occupy the link for 1.5 router cycles; SPAA restarts
	// every cycle, WFA every 3.
	if spaa <= wfa {
		t.Fatalf("SPAA=%d vs WFA=%d departures; pipelining should win", spaa, wfa)
	}
}

// TestVCLeastRecentlySelected drives two VCs at one input port and checks
// that nominations alternate between them (the LRS VC rule of §3).
func TestVCLeastRecentlySelected(t *testing.T) {
	cfg := DefaultConfig(core.KindSPAABase)
	h := newHarness(t, cfg)
	reqCh := vc.Of(packet.Request, vc.Adaptive)
	fwdCh := vc.Of(packet.Forward, vc.Adaptive)
	h.eng.Schedule(0, func() {
		for i := 0; i < 6; i++ {
			// Interleave classes; all head east, so they serialize on the
			// port and the VC choice is visible in the departure order.
			h.r.Arrive(packet.New(uint64(100+i), packet.Request, 4, 7, 0), ports.InWest, reqCh, 0, nil)
			h.r.Arrive(packet.New(uint64(200+i), packet.Forward, 4, 7, 0), ports.InWest, fwdCh, 0, nil)
		}
	})
	h.eng.Run(6000)
	if len(h.departures) != 12 {
		t.Fatalf("departures = %d, want 12", len(h.departures))
	}
	// LRS fairness: while both classes have waiting packets (the first
	// eight departures), each class must be served several times — neither
	// VC may monopolize the port. (Strict alternation is not guaranteed:
	// nomination order is LRS, but in-flight grants can reorder service by
	// a cycle.)
	counts := map[packet.Class]int{}
	for _, d := range h.departures[:8] {
		counts[d.p.Class]++
	}
	if counts[packet.Request] < 3 || counts[packet.Forward] < 3 {
		t.Fatalf("VC service unbalanced in first 8 departures: %v", counts)
	}
}

// TestWindowLimitsPickerDepth: with Window=1 the arbiter sees only each
// queue's head, so a blocked head (no credits for its direction) blocks
// eligible packets behind it; a deeper window lets them pass.
func TestWindowLimitsPickerDepth(t *testing.T) {
	run := func(window int) int {
		cfg := DefaultConfig(core.KindSPAABase)
		cfg.Window = window
		h := newHarness(t, cfg)
		adaptive := vc.Of(packet.Request, vc.Adaptive)
		// Block everything eastbound by exhausting east credits.
		cr := h.r.OutputCredits(ports.OutEast)
		for _, sub := range []vc.Sub{vc.Adaptive, vc.VC0, vc.VC1} {
			ch := vc.Of(packet.Request, sub)
			for cr.Available(ch) {
				cr.Reserve(ch)
			}
		}
		h.eng.Schedule(0, func() {
			// Head of queue wants east (blocked); the next packet wants the
			// local node and could go immediately.
			h.r.Arrive(packet.New(2, packet.Request, 4, 7, 0), ports.InWest, adaptive, 0, nil)
			h.r.Arrive(packet.New(4, packet.Request, 4, 5, 0), ports.InWest, adaptive, 0, nil)
		})
		h.eng.Run(3000)
		return len(h.deliveries)
	}
	if got := run(1); got != 0 {
		t.Fatalf("window=1 delivered %d packets past a blocked head", got)
	}
	if got := run(8); got != 1 {
		t.Fatalf("window=8 delivered %d, want 1 (blocked head bypassed)", got)
	}
}

// TestScaledPipelineRuns executes the Figure 11a configuration on a single
// router and checks the doubled pin-to-pin cycle count at the doubled
// clock.
func TestScaledPipelineRuns(t *testing.T) {
	cfg := DefaultConfig(core.KindSPAARotary).ScalePipeline()
	h := newHarness(t, cfg)
	p := packet.New(1, packet.Request, 4, 7, 0)
	h.eng.Schedule(0, func() {
		h.r.Arrive(p, ports.InWest, vc.Of(packet.Request, vc.Adaptive), 0, nil)
	})
	h.eng.Run(1000)
	if len(h.departures) != 1 {
		t.Fatalf("departures = %d", len(h.departures))
	}
	// 12 pre-arb + 5 arb + 10 post-arb fast cycles = 27 fast cycles.
	want := sim.Ticks(cfg.PinToPinCycles()) * cfg.RouterPeriod
	if got := h.departures[0].headerDepart; got != want {
		t.Errorf("scaled pin-to-pin = %d ticks, want %d", got, want)
	}
}

// TestDualAdaptiveDirectionsSpread checks that packets with two productive
// directions use both over time (the dirPref rotation).
func TestDualAdaptiveDirectionsSpread(t *testing.T) {
	cfg := DefaultConfig(core.KindSPAABase)
	h := newHarness(t, cfg)
	reqCh := vc.Of(packet.Request, vc.Adaptive)
	// Node 5=(1,1) to node 10=(2,2): productive dirs are east and south.
	h.eng.Schedule(0, func() {
		for i := 0; i < 12; i++ {
			h.r.Arrive(packet.New(uint64(i), packet.Request, 4, 10, 0), ports.InWest, reqCh, 0, nil)
		}
	})
	h.eng.Run(10000)
	dirs := map[ports.Out]int{}
	for _, d := range h.departures {
		dirs[d.out]++
	}
	if dirs[ports.OutEast] == 0 || dirs[ports.OutSouth] == 0 {
		t.Fatalf("adaptive routing never spread over both minimal directions: %v", dirs)
	}
}

// TestWrapChannelSelection: a dispatch that must cross the wrap edge in
// the deadlock-free subnetwork uses VC1.
func TestWrapChannelSelection(t *testing.T) {
	cfg := DefaultConfig(core.KindSPAABase)
	torus := topology.NewTorus(4, 4)
	r, err := New(cfg, 3, torus) // node 3 = (3,0); east neighbor wraps to (0,0)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	var got []vc.Channel
	for out := ports.Out(0); out < ports.NumOut; out++ {
		if out.IsNetwork() {
			r.ConnectNetwork(out, SendFunc(func(p *packet.Packet, ch vc.Channel, at sim.Ticks, home *vc.Credits) {
				got = append(got, ch)
				home.Release(ch)
			}))
		} else {
			r.ConnectLocal(out, func(p *packet.Packet, at sim.Ticks) {})
		}
	}
	eng.AddClock(cfg.RouterPeriod, 0, r)
	// Exhaust adaptive credits eastbound so the packet takes the escape
	// channel; from (3,0) east toward (1,0) the wrap edge lies ahead -> VC1.
	adaptive := vc.Of(packet.Request, vc.Adaptive)
	cr := r.OutputCredits(ports.OutEast)
	for cr.Available(adaptive) {
		cr.Reserve(adaptive)
	}
	eng.Schedule(0, func() {
		r.Arrive(packet.New(1, packet.Request, 2, 1, 0), ports.InWest, adaptive, 0, nil)
	})
	eng.Run(2000)
	if len(got) != 1 {
		t.Fatalf("departures = %d", len(got))
	}
	if got[0] != vc.Of(packet.Request, vc.VC1) {
		t.Errorf("escape channel = %v, want request/vc1 (wrap ahead)", got[0])
	}
}

// TestGrantPolicyFactoryOverride plugs a fixed-priority policy into SPAA
// and observes the deterministic winner.
func TestGrantPolicyFactoryOverride(t *testing.T) {
	cfg := DefaultConfig(core.KindSPAABase)
	cfg.GrantPolicyFactory = func(rows, cols int) core.SelectPolicy {
		return core.NewPriorityChainPolicy()
	}
	h := newHarness(t, cfg)
	reqCh := vc.Of(packet.Request, vc.Adaptive)
	h.eng.Schedule(0, func() {
		// Rows: InWest=row 6/7, InNorth=row 0/1. Priority chain favors the
		// lowest row, so the north packet must win every collision.
		h.r.Arrive(packet.New(1, packet.Request, 4, 7, 0), ports.InWest, reqCh, 0, nil)
		h.r.Arrive(packet.New(2, packet.Request, 1, 7, 0), ports.InNorth, reqCh, 0, nil)
	})
	h.eng.Run(3000)
	if len(h.departures) != 2 {
		t.Fatalf("departures = %d", len(h.departures))
	}
	if h.departures[0].p.ID != 2 {
		t.Errorf("priority chain winner = packet %d, want the north packet", h.departures[0].p.ID)
	}
}
