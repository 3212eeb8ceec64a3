package main

// trace.go is the traced run: each point is rebuilt from the simulator's
// public constructors in the order experiment's runTiming uses, with a
// timer around every seam the packages expose, and run serially so the
// layer times add back up to the traced wall time. Tracing only observes:
// the traced points' statistics must equal the Runner's byte for byte.

import (
	"time"

	"alpha21364/internal/core"
	"alpha21364/internal/experiment"
	"alpha21364/internal/network"
	"alpha21364/internal/obs"
	"alpha21364/internal/router"
	"alpha21364/internal/sim"
	"alpha21364/internal/standalone"
	"alpha21364/internal/stats"
	"alpha21364/internal/topology"
	"alpha21364/internal/workload"
)

// span accumulates the host time and call count of one timed seam.
type span struct {
	ns    int64
	calls int64
}

func (s *span) since(start time.Time) {
	s.ns += int64(time.Since(start))
	s.calls++
}

func (s span) seconds() float64 { return float64(s.ns) / 1e9 }

// timedPolicy times SPAA's output-port select policy.
type timedPolicy struct {
	inner core.SelectPolicy
	s     *span
}

func (p timedPolicy) Name() string { return p.inner.Name() }

func (p timedPolicy) Select(col int, rows []int, network []bool) int {
	start := time.Now()
	w := p.inner.Select(col, rows, network)
	p.s.since(start)
	return w
}

// timedClock times a clocked component's edge (the workload generator).
type timedClock struct {
	inner sim.Clocked
	s     *span
}

func (c timedClock) Tick(now sim.Ticks) {
	start := time.Now()
	c.inner.Tick(now)
	c.s.since(start)
}

// timedArbiter times a matching kernel.
type timedArbiter struct {
	inner core.Arbiter
	s     *span
}

func (a timedArbiter) Name() string { return a.inner.Name() }

func (a timedArbiter) Arbitrate(m *core.Matrix) []core.Grant {
	start := time.Now()
	g := a.inner.Arbitrate(m)
	a.s.since(start)
	return g
}

// traceResult is one traced run of a workload's job: spans and simulated
// counts summed over its points, plus each point's statistics.
type traceResult struct {
	wall   float64
	points []experiment.ResultPoint

	// setup covers construction up to the first simulated cycle; run is
	// the ShardGroup's Run, which contains edge (the router clock edge,
	// itself containing sel, the SPAA select policy) and tick (the
	// generator); summarize is the collector's BNF and latency summary.
	// model is standalone.RunArbiter, which contains the arbitrate spans.
	setup, run, edge, sel, tick, summarize, model span
	arbitrate                                     map[core.Kind]*span

	nodeCycles, cycles     float64
	counters               router.Counters
	stalls, creditWaits    int64
	occupancy              float64 // Σ per-router mean occupancy
	routers                int
	arb                    obs.ArbiterMetrics
	linkPackets, delivered int64
	linkUtil               float64 // Σ per-point mean link utilization
	torusPoints            int
	completed, pending     int64
}

// traceRun runs the job's points serially, traced. It mirrors only the
// Spec features the workloads use (the default uniform Bernoulli
// coherence workload, default warmup, one engine, load-axis standalone
// sweeps); the statistics check flags any divergence from the Runner.
func traceRun(spec experiment.Spec, pts []point) (*traceResult, error) {
	tr := &traceResult{arbitrate: map[core.Kind]*span{}}
	start := time.Now()
	tr.points = make([]experiment.ResultPoint, len(pts))
	for i, p := range pts {
		if isStandalone(spec) {
			tr.points[i] = tr.standalonePoint(spec.Standalone, p)
		} else {
			pt, err := tr.torusPoint(spec, p)
			if err != nil {
				return nil, err
			}
			tr.points[i] = pt
		}
	}
	tr.wall = time.Since(start).Seconds()
	return tr, nil
}

// torusPoint runs one timing point on the single-band sharded path, so
// the router clock edge is a job the benchmark can time, with telemetry
// on for the router and link counters.
func (tr *traceResult) torusPoint(spec experiment.Spec, p point) (experiment.ResultPoint, error) {
	t0 := time.Now()
	w, h := spec.Topology.Width, spec.Topology.Height
	seed := spec.Timing.Seed
	rcfg := router.DefaultConfig(p.kind)
	rcfg.Seed = seed
	if p.kind == core.KindSPAABase || p.kind == core.KindSPAARotary {
		rotary := p.kind == core.KindSPAARotary
		rcfg.GrantPolicyFactory = func(rows, cols int) core.SelectPolicy {
			return timedPolicy{inner: core.NewLRSPolicy(rows, cols, rotary), s: &tr.sel}
		}
	}
	cycles := spec.Timing.Cycles
	end := sim.Ticks(cycles) * rcfg.RouterPeriod
	eng := sim.NewEngine()
	col := stats.NewCollector(sim.Ticks(float64(end) * warmupFraction))
	torus := topology.NewTorus(w, h)
	members := []*sim.Engine{sim.NewEngine()}
	pb := sim.NewPostBuffer(w * h)
	net, err := network.NewSharded(network.Config{Width: w, Height: h, Router: rcfg},
		eng, members, topology.PartitionRows(torus, 1), pb, col)
	if err != nil {
		return experiment.ResultPoint{}, err
	}
	sg := sim.NewShardGroup(eng, members, pb, net.Lookahead())
	defer sg.Close()
	sg.SetEdge(rcfg.RouterPeriod, 0, func(shard int, now sim.Ticks, edge uint64) {
		start := time.Now()
		net.TickShard(shard, now, edge)
		tr.edge.since(start)
	})
	gen := workload.New(workloadConfig(spec, p, torus), net, eng, col)
	eng.AddClock(rcfg.RouterPeriod, 0, timedClock{inner: gen, s: &tr.tick})
	met := obs.NewSimMetrics(net.Nodes(), net.NumLinks())
	for node := 0; node < net.Nodes(); node++ {
		r := net.Router(topology.Node(node))
		r.SetMetrics(&met.Routers[node])
		r.SetFlight(&met.Flight[node])
	}
	net.SetMetrics(&met.Network)
	tr.setup.since(t0)

	t1 := time.Now()
	sg.Run(end)
	tr.run.since(t1)

	t2 := time.Now()
	bnf := col.BNF(net.Nodes(), end)
	lat := col.LatencySummaryNS()
	tr.summarize.since(t2)

	c := net.TotalCounters()
	tr.counters.Injected += c.Injected
	tr.counters.Nominations += c.Nominations
	tr.counters.Grants += c.Grants
	tr.counters.Collisions += c.Collisions
	tr.counters.WastedSpecReads += c.WastedSpecReads
	tr.counters.DrainEntries += c.DrainEntries
	met.Flush(end)
	snap := met.Snapshot(p.kind.String(), end)
	for _, r := range snap.Routers {
		tr.stalls += r.Stalls
		tr.creditWaits += r.CreditWaits
		tr.occupancy += r.MeanOccupancy
		tr.arb.Requests += r.ArbRequests
		tr.arb.Grants += r.ArbGrants
		tr.arb.Conflicts += r.ArbConflicts
	}
	tr.routers += len(snap.Routers)
	tr.linkPackets += snap.Network.LinkPackets
	tr.delivered += snap.Network.DeliveredPackets
	tr.linkUtil += snap.Network.LinkUtilization
	tr.torusPoints++
	tr.completed += gen.Completed()
	tr.pending += int64(gen.PendingInjections())
	tr.cycles += float64(cycles)
	tr.nodeCycles += float64(cycles) * float64(net.Nodes())
	return experiment.ResultPoint{
		Rate:         p.value,
		Throughput:   bnf.Throughput,
		AvgLatencyNS: bnf.AvgLatencyNS,
		LatencyP50NS: lat.P50NS,
		LatencyP95NS: lat.P95NS,
		LatencyP99NS: lat.P99NS,
		Packets:      bnf.Packets,
		Completed:    gen.Completed(),
		DrainEntries: c.DrainEntries,
		Collisions:   c.Collisions,
		MeanHops:     col.MeanHops(),
	}, nil
}

// standalonePoint runs one standalone point through RunArbiter with the
// kernel wrapped in a timer and the telemetry counters.
func (tr *traceResult) standalonePoint(sa *experiment.StandaloneSpec, p point) experiment.ResultPoint {
	t0 := time.Now()
	cfg := standaloneConfig(sa, p.value)
	s := tr.arbitrate[p.kind]
	if s == nil {
		s = &span{}
		tr.arbitrate[p.kind] = s
	}
	arb := core.InstrumentArbiter(timedArbiter{inner: newKernel(p.kind, cfg), s: s}, &tr.arb)
	tr.setup.since(t0)

	t1 := time.Now()
	res := standalone.RunArbiter(arb, cfg)
	tr.model.since(t1)
	tr.cycles += float64(cfg.Cycles)
	tr.nodeCycles += float64(cfg.Cycles)
	return experiment.ResultPoint{
		Axis:            p.value,
		MatchesPerCycle: res.MatchesPerCycle,
		OfferedPerCycle: res.OfferedPerCycle,
		DroppedPerCycle: res.DroppedPerCycle,
		MeanQueueLen:    res.MeanQueueLen,
	}
}

// arbitrateTotal sums the kernel spans over all algorithms.
func (tr *traceResult) arbitrateTotal() span {
	var t span
	for _, s := range tr.arbitrate {
		t.ns += s.ns
		t.calls += s.calls
	}
	return t
}
