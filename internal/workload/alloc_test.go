package workload

import (
	"testing"

	"alpha21364/internal/core"
	"alpha21364/internal/network"
	"alpha21364/internal/router"
	"alpha21364/internal/sim"
	"alpha21364/internal/stats"
	"alpha21364/internal/topology"
)

// TestGeneratorInjectionAllocs pins the steady-state allocation budget of
// the whole injection path — Generator.Tick (arrival draws, coherence
// transaction opens, packet minting from the arena, injection retries),
// router traversal, link flights, and delivery bookkeeping — by running a
// loaded 2x2 network and measuring allocations per simulated window after
// warmup. The budget is near zero: the only tolerated residue is Go map
// internals in the transaction table, well under one allocation per
// router cycle.
func TestGeneratorInjectionAllocs(t *testing.T) {
	eng := sim.NewEngine()
	col := stats.NewCollector(0)
	rcfg := router.DefaultConfig(core.KindSPAABase)
	rcfg.Seed = 1
	net, err := network.New(network.Config{Width: 2, Height: 2, Router: rcfg}, eng, col)
	if err != nil {
		t.Fatal(err)
	}
	gen := New(Config{
		Process:        NewBernoulli(0.05),
		MaxOutstanding: 16,
		Seed:           1,
	}, net, eng, col)
	eng.AddClock(rcfg.RouterPeriod, 0, gen)

	// Warm: arena, slabs, event free list, pending queues, txn pool.
	const window = 64 * 10 // 64 router cycles in ticks
	until := sim.Ticks(2000 * 10)
	eng.Run(until)

	allocs := testing.AllocsPerRun(100, func() {
		until += window
		eng.Run(until)
	})
	perCycle := allocs / 64
	if perCycle > 1 {
		t.Fatalf("steady-state injection allocates %.2f/router-cycle (%.1f per %d-cycle window), want <= 1",
			perCycle, allocs, 64)
	}
	if gen.Completed() == 0 {
		t.Fatal("no transactions completed; the workload never ran")
	}
}

// TestShardedRunMatchesEngineRun runs the generator's load through both
// ways of driving the router edge: network.New plus Engine.Run, which
// every Spec runs, and simbench's traced path, NewSharded plus a
// one-band sim.ShardGroup. The counters and latency summary must agree
// exactly, before and after a drain. A loaded run makes the order in
// which the edge ticks the routers visible: routers release credits into
// their neighbors' pools during the edge.
func TestShardedRunMatchesEngineRun(t *testing.T) {
	const w, h, cycles, drainCycles = 4, 4, 3000, 20000
	for _, kind := range []core.Kind{core.KindPIM1, core.KindWFABase, core.KindWFARotary, core.KindSPAABase, core.KindSPAARotary} {
		t.Run(kind.String(), func(t *testing.T) {
			rcfg := router.DefaultConfig(kind)
			rcfg.Seed = 1
			cfg := network.Config{Width: w, Height: h, Router: rcfg}
			wcfg := Config{Process: NewBernoulli(0.09), MaxOutstanding: 16, Seed: 1}
			end := sim.Ticks(cycles) * rcfg.RouterPeriod
			drained := end + sim.Ticks(drainCycles)*rcfg.RouterPeriod

			eng := sim.NewEngine()
			col := stats.NewCollector(0)
			net, err := network.New(cfg, eng, col)
			if err != nil {
				t.Fatal(err)
			}
			gen := New(wcfg, net, eng, col)
			eng.AddClock(rcfg.RouterPeriod, 0, gen)

			hub := sim.NewEngine()
			shardCol := stats.NewCollector(0)
			members := []*sim.Engine{sim.NewEngine()}
			pb := sim.NewPostBuffer(w * h)
			shardNet, err := network.NewSharded(cfg, hub, members, topology.PartitionRows(topology.NewTorus(w, h), 1), pb, shardCol)
			if err != nil {
				t.Fatal(err)
			}
			sg := sim.NewShardGroup(hub, members, pb, shardNet.Lookahead())
			defer sg.Close()
			sg.SetEdge(rcfg.RouterPeriod, 0, shardNet.TickShard)
			shardGen := New(wcfg, shardNet, hub, shardCol)
			hub.AddClock(rcfg.RouterPeriod, 0, shardGen)
			chk := Checker(shardNet, shardGen)

			same := func(when string) {
				t.Helper()
				if got, want := shardNet.TotalCounters(), net.TotalCounters(); got != want {
					t.Fatalf("%s: sharded counters %+v, Engine.Run %+v", when, got, want)
				}
				if got, want := shardCol.LatencySummaryNS(), col.LatencySummaryNS(); got != want {
					t.Fatalf("%s: sharded latency %+v, Engine.Run %+v", when, got, want)
				}
				chk.Final(hub.Now())
				if err := chk.Err(); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
			}
			eng.Run(end)
			sg.Run(end)
			if col.Packets() == 0 {
				t.Fatal("the load delivered no packet")
			}
			same("loaded")
			gen.Stop()
			shardGen.Stop()
			eng.Run(drained)
			sg.Run(drained)
			same("drained")
			if n := shardNet.Buffered(); n != 0 {
				t.Errorf("%d packets still buffered in the sharded network", n)
			}
			if f := shardNet.LinkFlight(); f != 0 {
				t.Errorf("%d packets in link flight after the drain, want 0", f)
			}
		})
	}
}

// TestWholeRunAllocs pins what a timing point allocates after it is
// built, over its whole run rather than a warmed steady state: a 4x4
// torus (engine, collector, network.New, New) at light and saturating
// load with 16 outstanding transactions, for every router kind and for
// SPAA-rotary under ScalePipeline. The run's count is AllocsPerRun over
// build plus a 4,000-cycle run, minus AllocsPerRun over the build
// alone; both are deterministic. Every pool the run fills is sized at
// construction or grows in fixed chunks, so what remains is a few
// chunk, histogram and backpressure-queue growths per point: 7–9 at
// 0.01 and 14–28 at 0.09.
func TestWholeRunAllocs(t *testing.T) {
	const w, h, cycles, maxRunAllocs = 4, 4, 4000, 40
	type point struct {
		name string
		cfg  router.Config
	}
	var points []point
	for _, kind := range []core.Kind{core.KindPIM1, core.KindWFABase, core.KindWFARotary, core.KindSPAABase, core.KindSPAARotary} {
		points = append(points, point{kind.String(), router.DefaultConfig(kind)})
	}
	points = append(points, point{"SPAA-rotary/scaled", router.DefaultConfig(core.KindSPAARotary).ScalePipeline()})
	for _, pt := range points {
		for _, rate := range []float64{0.01, 0.09} {
			rcfg := pt.cfg
			end := sim.Ticks(cycles) * rcfg.RouterPeriod
			build := func() *sim.Engine {
				eng := sim.NewEngine()
				col := stats.NewCollector(end / 5)
				net, err := network.New(network.Config{Width: w, Height: h, Router: rcfg}, eng, col)
				if err != nil {
					t.Fatal(err)
				}
				gen := New(Config{Process: NewBernoulli(rate), MaxOutstanding: 16, Seed: 1}, net, eng, col)
				eng.AddClock(rcfg.RouterPeriod, 0, gen)
				return eng
			}
			built := testing.AllocsPerRun(1, func() { build() })
			whole := testing.AllocsPerRun(1, func() { build().Run(end) })
			if run := whole - built; run > maxRunAllocs {
				t.Errorf("%s at %g: the %d-cycle run makes %.0f allocations after construction (%.0f with the build, %.0f building), want at most %d",
					pt.name, rate, cycles, run, whole, built, maxRunAllocs)
			} else {
				t.Logf("%s at %g: %.0f run allocations (%.0f building)", pt.name, rate, run, built)
			}
		}
	}
}
