package check

import (
	"strings"
	"testing"

	"alpha21364/internal/core"
	"alpha21364/internal/obs"
	"alpha21364/internal/packet"
	"alpha21364/internal/ports"
	"alpha21364/internal/router"
	"alpha21364/internal/sim"
	"alpha21364/internal/topology"
	"alpha21364/internal/vc"
)

// testRouter builds a router whose four network outputs feed a blackhole:
// dispatched packets vanish without ever arriving anywhere or returning
// their credits — an artificial stall no correct network can produce,
// which is exactly what the oracle must detect.
func testRouter(t *testing.T) (*router.Router, *int64) {
	t.Helper()
	cfg := router.DefaultConfig(core.KindSPAARotary)
	torus := topology.NewTorus(4, 4)
	r, err := router.New(cfg, 0, torus)
	if err != nil {
		t.Fatal(err)
	}
	sent := new(int64)
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		r.ConnectNetwork(ports.OutForDir(d),
			router.SendFunc(func(p *packet.Packet, targetCh vc.Channel, headerDepart sim.Ticks, creditHome *vc.Credits) {
				*sent++
			}))
	}
	for _, out := range []ports.Out{ports.OutMC0, ports.OutMC1, ports.OutIO} {
		r.ConnectLocal(out, func(p *packet.Packet, at sim.Ticks) {})
	}
	return r, sent
}

// stalledInjector keeps offering packets toward a fixed destination until
// the router's injection buffer refuses them.
type stalledInjector struct {
	r      *router.Router
	dst    topology.Node
	nextID uint64
	want   int
}

func (inj *stalledInjector) Tick(now sim.Ticks) {
	for inj.nextID < uint64(inj.want) {
		p := packet.New(inj.nextID+1, packet.Request, 0, inj.dst, now)
		if !inj.r.Inject(p, ports.InCache, now) {
			return
		}
		inj.nextID++
	}
}

// TestWatchdogTripsOnStalledRouter is the deadlock-watchdog regression
// test: an adversarial hand-built scenario — packets funneled at a
// blackhole link that eats credits — must trip the watchdog with a report
// naming the stuck router and virtual channels.
func TestWatchdogTripsOnStalledRouter(t *testing.T) {
	r, sent := testRouter(t)
	cfg := r.Config()
	eng := sim.NewEngine()
	// Destination two hops east: every productive and escape direction is
	// East, so all traffic funnels into one blackhole port.
	inj := &stalledInjector{r: r, dst: topology.Node(2), want: 400}
	eng.AddClock(cfg.RouterPeriod, 0, r, inj)

	r.SetFlight(obs.NewFlightRing(obs.DefaultFlightDepth))
	chk := New(Probes{
		Injected:   func() int64 { return r.Counters.Injected },
		Delivered:  func() int64 { return r.Counters.DeliveredLocal },
		Buffered:   r.Buffered,
		LinkFlight: func() int64 { return *sent },
		Stop:       eng.Stop,
		Routers:    []*router.Router{r},
	})
	chk.Schedule(eng)

	eng.Run(cfg.RouterPeriod * 100000)
	v := chk.Violation()
	if v == nil {
		t.Fatal("stalled router did not trip the watchdog")
	}
	if v.Invariant != "watchdog" {
		t.Fatalf("expected a watchdog violation, got %q: %v", v.Invariant, v)
	}
	if len(v.Stuck) == 0 {
		t.Fatal("watchdog report names no stuck virtual channels")
	}
	for _, s := range v.Stuck {
		if s.Node != 0 {
			t.Errorf("stuck VC names router %d, want 0", s.Node)
		}
		if s.Queued <= 0 || s.OldestID == 0 {
			t.Errorf("stuck VC carries no useful occupancy: %+v", s)
		}
		if s.Waited <= 0 {
			t.Errorf("stuck VC reports no waiting time: %+v", s)
		}
	}
	// The flight recorder's dump rides along: the stuck router's recent
	// engine events, as a structured trace and as JSON in the message.
	if len(v.Trace) != 1 || v.Trace[0].Node != 0 {
		t.Fatalf("watchdog trace = %+v, want one dump for router 0", v.Trace)
	}
	if len(v.Trace[0].Events) == 0 {
		t.Fatal("watchdog trace holds no flight events")
	}
	var sawReset bool
	for _, e := range v.Trace[0].Events {
		if e.Kind == obs.FlightReset {
			sawReset = true
		}
	}
	if !sawReset {
		t.Error("stuck router's trace shows no nomination resets")
	}
	msg := v.Error()
	for _, want := range []string{"watchdog", "no delivery", "router 0", "L-Cache",
		`flight {"node":0,"events":[`, `"kind":"reset"`} {
		if !strings.Contains(msg, want) {
			t.Errorf("violation message %q does not mention %q", msg, want)
		}
	}
	// The run must have stopped at the horizon, not burned to the end.
	if eng.Now() >= cfg.RouterPeriod*100000 {
		t.Error("violation did not stop the engine")
	}
}

func TestSPAAGrantLegality(t *testing.T) {
	r, _ := testRouter(t)
	g := router.SPAAGrant{ID: 7, Row: 9, In: ports.InCache, Out: ports.OutEast, TargetCh: 0}

	t.Run("grant without nomination", func(t *testing.T) {
		chk := New(Probes{Routers: []*router.Router{r}})
		chk.SPAAResolve(r, 100, []router.SPAAGrant{g})
		v := chk.Violation()
		if v == nil || v.Invariant != "grant-legality" {
			t.Fatalf("unmatched grant not caught: %v", v)
		}
		if !strings.Contains(v.Error(), "no pending nomination") {
			t.Errorf("unhelpful message: %v", v)
		}
	})

	t.Run("nominated grant is legal once", func(t *testing.T) {
		chk := New(Probes{Routers: []*router.Router{r}})
		chk.SPAANominate(r, 50, g, 100)
		chk.SPAAResolve(r, 100, []router.SPAAGrant{g})
		if err := chk.Err(); err != nil {
			t.Fatalf("legal grant flagged: %v", err)
		}
		// The nomination was consumed: granting it again is illegal.
		chk.SPAAResolve(r, 103, []router.SPAAGrant{g})
		if chk.Violation() == nil {
			t.Fatal("double-consumed nomination not caught")
		}
	})

	t.Run("nomination not yet due", func(t *testing.T) {
		chk := New(Probes{Routers: []*router.Router{r}})
		chk.SPAANominate(r, 50, g, 100)
		chk.SPAAResolve(r, 99, []router.SPAAGrant{g})
		if chk.Violation() == nil {
			t.Fatal("early resolution not caught")
		}
	})

	t.Run("output granted twice", func(t *testing.T) {
		chk := New(Probes{Routers: []*router.Router{r}})
		g2 := g
		g2.ID, g2.Row = 8, 11
		chk.SPAANominate(r, 50, g, 100)
		chk.SPAANominate(r, 50, g2, 100)
		chk.SPAAResolve(r, 100, []router.SPAAGrant{g, g2})
		v := chk.Violation()
		if v == nil || !strings.Contains(v.Msg, "granted twice") {
			t.Fatalf("double output grant not caught: %v", v)
		}
	})

	t.Run("row granted twice", func(t *testing.T) {
		chk := New(Probes{Routers: []*router.Router{r}})
		g2 := g
		g2.ID, g2.Out = 8, ports.OutNorth
		chk.SPAANominate(r, 50, g, 100)
		chk.SPAANominate(r, 50, g2, 100)
		chk.SPAAResolve(r, 100, []router.SPAAGrant{g, g2})
		v := chk.Violation()
		if v == nil || !strings.Contains(v.Msg, "read port row") {
			t.Fatalf("double row grant not caught: %v", v)
		}
	})
}

func TestWaveGrantLegality(t *testing.T) {
	r, _ := testRouter(t)
	mk := func() *core.Matrix {
		m := core.NewRouterMatrix()
		m.Set(0, 0, 10, 1, 0)
		m.Set(2, 1, 11, 2, 0)
		m.Set(2, 2, 11, 2, 0) // same packet, second column: legal
		return m
	}

	t.Run("legal wave passes", func(t *testing.T) {
		chk := New(Probes{Routers: []*router.Router{r}})
		m := mk()
		chk.WaveResolve(r, 100, m, []core.Grant{
			{Row: 0, Col: 0, Cell: m.At(0, 0)},
			{Row: 2, Col: 1, Cell: m.At(2, 1)},
		})
		if err := chk.Err(); err != nil {
			t.Fatalf("legal wave flagged: %v", err)
		}
	})

	t.Run("packet in two rows", func(t *testing.T) {
		chk := New(Probes{Routers: []*router.Router{r}})
		m := mk()
		m.Set(5, 3, 11, 2, 0) // packet 2 now nominated by rows 2 and 5
		chk.WaveResolve(r, 100, m, nil)
		v := chk.Violation()
		if v == nil || v.Invariant != "wave-matrix" {
			t.Fatalf("two-row packet not caught: %v", v)
		}
	})

	t.Run("packet in three columns", func(t *testing.T) {
		chk := New(Probes{Routers: []*router.Router{r}})
		m := mk()
		m.Set(2, 3, 11, 2, 0)
		chk.WaveResolve(r, 100, m, nil)
		v := chk.Violation()
		if v == nil || !strings.Contains(v.Msg, "more than two columns") {
			t.Fatalf("three-column packet not caught: %v", v)
		}
	})

	t.Run("grant on empty cell", func(t *testing.T) {
		chk := New(Probes{Routers: []*router.Router{r}})
		m := mk()
		chk.WaveResolve(r, 100, m, []core.Grant{{Row: 4, Col: 4}})
		v := chk.Violation()
		if v == nil || !strings.Contains(v.Msg, "no pending request") {
			t.Fatalf("empty-cell grant not caught: %v", v)
		}
	})

	t.Run("column granted twice", func(t *testing.T) {
		chk := New(Probes{Routers: []*router.Router{r}})
		m := mk()
		m.Set(4, 0, 12, 3, 0)
		chk.WaveResolve(r, 100, m, []core.Grant{
			{Row: 0, Col: 0, Cell: m.At(0, 0)},
			{Row: 4, Col: 0, Cell: m.At(4, 0)},
		})
		v := chk.Violation()
		if v == nil || !strings.Contains(v.Msg, "granted twice") {
			t.Fatalf("double column grant not caught: %v", v)
		}
	})
}

func TestConservationAndArena(t *testing.T) {
	t.Run("leak detected", func(t *testing.T) {
		chk := New(Probes{
			Injected:  func() int64 { return 10 },
			Delivered: func() int64 { return 4 },
			Buffered:  func() int { return 3 }, // 3 packets unaccounted for
		})
		chk.Sweep(1000)
		v := chk.Violation()
		if v == nil || v.Invariant != "conservation" {
			t.Fatalf("leak not caught: %v", v)
		}
	})

	t.Run("arena leak detected", func(t *testing.T) {
		chk := New(Probes{
			Injected:  func() int64 { return 10 },
			Delivered: func() int64 { return 7 },
			Buffered:  func() int { return 3 },
			ArenaLive: func() int { return 5 }, // 2 more than accounted: leaked
			Sunk:      func() int64 { return 7 },
		})
		chk.Final(1000)
		v := chk.Violation()
		if v == nil || v.Invariant != "arena-leak" {
			t.Fatalf("arena leak not caught: %v", v)
		}
	})

	t.Run("consistent state passes", func(t *testing.T) {
		chk := New(Probes{
			Injected:          func() int64 { return 10 },
			Delivered:         func() int64 { return 6 },
			Buffered:          func() int { return 3 },
			LinkFlight:        func() int64 { return 1 },
			PendingInjections: func() int { return 2 },
			ArenaLive:         func() int { return 7 }, // 3 buffered + 1 flight + 2 pending + 1 awaiting sink
			Sunk:              func() int64 { return 5 },
		})
		chk.Sweep(1000)
		chk.Final(2000)
		if err := chk.Err(); err != nil {
			t.Fatalf("consistent state flagged: %v", err)
		}
	})
}

func TestCreditBounds(t *testing.T) {
	r, _ := testRouter(t)
	chk := New(Probes{Routers: []*router.Router{r}})
	chk.Sweep(10)
	if err := chk.Err(); err != nil {
		t.Fatalf("fresh router flagged: %v", err)
	}
	// A spurious credit release pushes the pool past its capacity — the
	// signature of a double release.
	r.OutputCredits(ports.OutEast).Release(vc.Of(packet.Request, vc.Adaptive))
	chk.Sweep(20)
	v := chk.Violation()
	if v == nil || v.Invariant != "credit-bounds" {
		t.Fatalf("credit double release not caught: %v", v)
	}
	if !strings.Contains(v.Msg, "double release") {
		t.Errorf("unhelpful message: %v", v)
	}
}

// TestCheckerStopsAtFirstViolation verifies only the first violation is
// recorded and later sweeps are inert.
func TestCheckerStopsAtFirstViolation(t *testing.T) {
	stops := 0
	chk := New(Probes{
		Injected:  func() int64 { return 1 },
		Delivered: func() int64 { return 0 },
		Buffered:  func() int { return 0 },
		Stop:      func() { stops++ },
	})
	chk.Sweep(100)
	first := chk.Violation()
	chk.Sweep(200)
	chk.Final(300)
	if chk.Violation() != first {
		t.Error("violation was overwritten")
	}
	if stops != 1 {
		t.Errorf("Stop called %d times, want 1", stops)
	}
}
