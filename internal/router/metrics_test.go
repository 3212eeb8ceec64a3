package router

import (
	"testing"

	"alpha21364/internal/core"
	"alpha21364/internal/obs"
	"alpha21364/internal/packet"
	"alpha21364/internal/ports"
	"alpha21364/internal/sim"
	"alpha21364/internal/topology"
)

// nopOracle is an Oracle that checks nothing, so a test can watch a
// router with every observer installed.
type nopOracle struct{}

func (nopOracle) SPAANominate(*Router, sim.Ticks, SPAAGrant, sim.Ticks)      {}
func (nopOracle) SPAAResolve(*Router, sim.Ticks, []SPAAGrant)                {}
func (nopOracle) WaveResolve(*Router, sim.Ticks, *core.Matrix, []core.Grant) {}

// runMetricsRig drives one self-addressed router for a fixed number of
// injection cycles after install (when non-nil) has watched it,
// returning the counters and final time.
func runMetricsRig(t *testing.T, kind core.Kind, install func(r *Router)) (Counters, sim.Ticks) {
	t.Helper()
	torus := topology.NewTorus(4, 4)
	cfg := DefaultConfig(kind)
	r, err := New(cfg, 5, torus)
	if err != nil {
		t.Fatal(err)
	}
	if install != nil {
		install(r)
	}
	arena := packet.NewArena()
	for _, out := range []ports.Out{ports.OutMC0, ports.OutMC1, ports.OutIO} {
		r.ConnectLocal(out, func(p *packet.Packet, at sim.Ticks) {
			arena.Release(p)
		})
	}
	now := sim.Ticks(0)
	id := uint64(0)
	for i := 0; i < 60; i++ {
		id++
		p := arena.New(id, packet.Request, 5, 5, now)
		if !r.Inject(p, ports.InCache, now) {
			arena.Release(p)
		}
		for c := 0; c < 8; c++ {
			r.Tick(now)
			now += cfg.RouterPeriod
		}
	}
	return r.Counters, now
}

// TestMetricsObservationOnly runs the same deterministic traffic with
// and without the router watched and requires identical router
// counters: the oracle, metrics and the flight recorder must not perturb
// the simulation. Each watched run must also fill the counter block
// exactly as metrics alone do: installing the block twice counts each
// event once, and the other observers add nothing to it.
func TestMetricsObservationOnly(t *testing.T) {
	watches := []struct {
		name    string
		install func(r *Router, m *obs.RouterMetrics)
	}{
		{"metrics", func(r *Router, m *obs.RouterMetrics) { r.SetMetrics(m) }},
		{"metrics twice", func(r *Router, m *obs.RouterMetrics) { r.SetMetrics(m); r.SetMetrics(m) }},
		{"oracle, metrics and flight", func(r *Router, m *obs.RouterMetrics) {
			r.SetOracle(nopOracle{})
			r.SetMetrics(m)
			r.SetFlight(obs.NewFlightRing(64))
		}},
	}
	for _, kind := range []core.Kind{core.KindSPAARotary, core.KindPIM1, core.KindWFARotary} {
		bare, _ := runMetricsRig(t, kind, nil)
		var m obs.RouterMetrics
		var end sim.Ticks
		for i, c := range watches {
			var got obs.RouterMetrics
			watched, at := runMetricsRig(t, kind, func(r *Router) { c.install(r, &got) })
			if bare != watched {
				t.Fatalf("%v, %s: counters diverged:\nbare %+v\n  obs %+v", kind, c.name, bare, watched)
			}
			if i == 0 {
				m, end = got, at
			} else if got != m {
				t.Errorf("%v, %s: counter block %+v, want the metrics-only run's %+v", kind, c.name, got.Arb, m.Arb)
			}
		}
		m.Flush(end)
		// Consistency between the two counting systems.
		if m.Arb.Grants < bare.Grants {
			t.Errorf("%v: arb grants %d < dispatches %d", kind, m.Arb.Grants, bare.Grants)
		}
		if m.Arb.Requests != m.Arb.Grants+m.Arb.Conflicts {
			t.Errorf("%v: requests %d != grants %d + conflicts %d",
				kind, m.Arb.Requests, m.Arb.Grants, m.Arb.Conflicts)
		}
		if m.Stalls+m.CreditWaits != m.Arb.NomFailures {
			t.Errorf("%v: stalls %d + credit waits %d != nomination failures %d",
				kind, m.Stalls, m.CreditWaits, m.Arb.NomFailures)
		}
		// All packets delivered locally, so every injected packet spent time
		// buffered: the occupancy integral must be positive and the snapshot
		// must reflect it.
		snap := func() *obs.Snapshot {
			sm := &obs.SimMetrics{Routers: []obs.RouterMetrics{m}}
			return sm.Snapshot(kind.String(), end)
		}()
		if snap.Routers[0].MeanOccupancy <= 0 {
			t.Errorf("%v: mean occupancy = %v, want > 0", kind, snap.Routers[0].MeanOccupancy)
		}
	}
}

// TestFlightRecorderCapturesLifecycle checks the ring holds a packet's
// inject → nominate → grant sequence in order.
func TestFlightRecorderCapturesLifecycle(t *testing.T) {
	f := obs.NewFlightRing(1024)
	_, _ = runMetricsRig(t, core.KindSPAARotary, func(r *Router) { r.SetFlight(f) })
	ev := f.Events()
	if len(ev) == 0 {
		t.Fatal("flight ring empty after traffic")
	}
	var sawInject, sawNominate, sawGrant bool
	last := sim.Ticks(-1)
	for _, e := range ev {
		if e.At < last {
			t.Fatalf("flight events out of order: %+v", ev)
		}
		last = e.At
		switch e.Kind {
		case obs.FlightInject:
			sawInject = true
		case obs.FlightNominate:
			sawNominate = true
		case obs.FlightGrant:
			sawGrant = true
			if e.Out >= ports.NumOut {
				t.Fatalf("grant event with no output port: %+v", e)
			}
		}
	}
	if !sawInject || !sawNominate || !sawGrant {
		t.Fatalf("lifecycle incomplete: inject=%v nominate=%v grant=%v", sawInject, sawNominate, sawGrant)
	}
}

// TestRouterTickAllocsWithMetrics extends the steady-state allocation
// pin over the watched path: telemetry increments must stay plain field
// writes, and the oracle's grant record must stop growing.
func TestRouterTickAllocsWithMetrics(t *testing.T) {
	for _, kind := range []core.Kind{core.KindSPAABase, core.KindPIM1} {
		torus := topology.NewTorus(4, 4)
		cfg := DefaultConfig(kind)
		r, err := New(cfg, 5, torus)
		if err != nil {
			t.Fatal(err)
		}
		var m obs.RouterMetrics
		r.SetOracle(nopOracle{})
		r.SetMetrics(&m)
		r.SetFlight(obs.NewFlightRing(obs.DefaultFlightDepth))
		arena := packet.NewArena()
		for _, out := range []ports.Out{ports.OutMC0, ports.OutMC1, ports.OutIO} {
			r.ConnectLocal(out, func(p *packet.Packet, at sim.Ticks) {
				arena.Release(p)
			})
		}

		now := sim.Ticks(0)
		id := uint64(0)
		cycle := func() {
			id++
			p := arena.New(id, packet.Request, 5, 5, now)
			if !r.Inject(p, ports.InCache, now) {
				arena.Release(p)
			}
			for c := 0; c < 8; c++ {
				r.Tick(now)
				now += cfg.RouterPeriod
			}
		}
		for i := 0; i < 50; i++ {
			cycle()
		}
		allocs := testing.AllocsPerRun(200, cycle)
		if allocs != 0 {
			t.Errorf("%v: metrics-enabled router Tick allocates %.2f/op, want 0", kind, allocs)
		}
	}
}
