// Package experiment reproduces the paper's evaluation: each figure of §5
// is a canned Spec (FigureSpecs) that a Runner executes into a Result,
// whose Panel, Curves, and Table views are the series/tables the paper
// plots, and Verify checks the paper's claims against them. The cmd/sweep
// tool and the repository's benchmarks are thin wrappers around this
// package.
package experiment

import (
	"context"
	"fmt"

	"alpha21364/internal/check"
	"alpha21364/internal/core"
	"alpha21364/internal/network"
	"alpha21364/internal/obs"
	"alpha21364/internal/router"
	"alpha21364/internal/sim"
	"alpha21364/internal/stats"
	"alpha21364/internal/topology"
	"alpha21364/internal/workload"
)

// Options tunes how faithfully the experiments are rerun. Quick mode
// shortens the simulations for CI and benchmarks; the full mode matches
// the paper's 75,000-cycle runs.
type Options struct {
	Quick bool
	Seed  uint64
	// CyclesOverride, when positive, replaces the per-run router cycle
	// count (used by the benchmark harness).
	CyclesOverride int
	// MaxRatePoints, when positive, subsamples each load sweep to at most
	// this many points, always keeping the lightest and heaviest loads.
	MaxRatePoints int
	// Check enables the online invariant oracle on every canned spec the
	// options build (cmd/sweep -check).
	Check bool
	// Metrics enables the telemetry layer on every timing spec the options
	// build (cmd/sweep -metrics); standalone-model specs have no router
	// simulation to observe and are left unstamped.
	Metrics bool
	// Replications, when > 1, replicates every point of the canned specs
	// with derived seeds (cmd/sweep -reps); Confidence is the interval's
	// confidence level (0 = 0.95).
	Replications int
	Confidence   float64
	// TorusShards, when positive, spatially shards every timing spec the
	// options build into that many row bands (cmd/sweep -torus-shards);
	// standalone-model specs have no torus and are left unstamped.
	TorusShards int
}

// TimingCycles returns the per-run router cycle count.
func (o Options) TimingCycles() int {
	if o.CyclesOverride > 0 {
		return o.CyclesOverride
	}
	if o.Quick {
		return 15000
	}
	return 75000
}

// StandaloneCycles returns the standalone-model iteration count.
func (o Options) StandaloneCycles() int {
	if o.Quick {
		return 400
	}
	return 1000
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// ApplyStudy stamps the study-wide toggles — invariant checking and
// replication — into a spec built from these options.
func (o Options) ApplyStudy(sp *Spec) {
	if o.Check {
		sp.Check = true
	}
	if o.Metrics && sp.Mode != ModeStandalone {
		sp.Metrics = true
	}
	if o.TorusShards > 0 && sp.Mode != ModeStandalone {
		if sp.Timing == nil {
			sp.Timing = &TimingSpec{}
		}
		sp.Timing.TorusShards = o.TorusShards
	}
	if o.Replications > 1 {
		sp.Replications = o.Replications
		if o.Confidence != 0 {
			sp.Confidence = o.Confidence
		}
	}
}

// NoWarmup is a TimingSpec.WarmupFraction sentinel requesting that no
// cycles be excluded from statistics. (A literal 0 keeps the 0.2
// default.)
const NoWarmup = -1.0

// timingRun is one timing simulation's whole input: the Spec it expands
// from, which runTiming reads for everything else, plus what the job
// itself adds. router is the arbiter's default configuration with the
// replication seed (which also seeds the workload), scaled when the Spec
// asks for it; tests edit it to study routers no Spec describes.
// pattern, process, and rate are the job's scenario point, all unset
// for a replay.
type timingRun struct {
	spec             *Spec
	router           router.Config
	pattern, process string
	rate             float64
}

func (tr *timingRun) run(ctx context.Context) (ResultPoint, error) { return runTiming(ctx, tr) }

// workloadConfig expands the job into the workload decomposition: either
// a replay of a recorded trace, or its pattern × process × model
// combination under the outstanding-miss cap. The router clock is
// stamped into recorded traces and checked against replayed ones.
func (tr *timingRun) workloadConfig(t topology.Torus) (workload.Config, error) {
	w, period, seed := tr.spec.Workload, tr.router.RouterPeriod, tr.router.Seed
	cfg := workload.Config{Pattern: workload.NewUniform(t), Seed: seed}
	if w.ReplayFrom != "" {
		trace, err := workload.ReadTraceFile(w.ReplayFrom)
		if err != nil {
			return cfg, err
		}
		replay := workload.NewReplay(trace)
		if err := replay.CheckCompatible(t.Width, t.Height, period); err != nil {
			return cfg, err
		}
		cfg.Process, cfg.Model = workload.NewSilent(), replay
	} else {
		var err error
		if cfg.Pattern, err = workload.NewPattern(tr.pattern, t); err != nil {
			return cfg, err
		}
		if cfg.Process, err = workload.NewProcess(tr.process, tr.rate); err != nil {
			return cfg, err
		}
		if cfg.Model, err = workload.NewModel(w.Model); err != nil {
			return cfg, err
		}
		cfg.MaxOutstanding = w.MaxOutstanding
		if cfg.MaxOutstanding <= 0 {
			cfg.MaxOutstanding = 16
		}
	}
	if w.RecordTo != "" {
		cfg.Record = &workload.Trace{
			Width: t.Width, Height: t.Height, Period: period,
			Label: fmt.Sprintf("kind=%v pattern=%s process=%s rate=%g seed=%d cycles=%d",
				tr.router.Kind, cfg.Pattern.Name(), cfg.Process.Name(), tr.rate, seed, tr.spec.Timing.Cycles),
		}
	}
	return cfg, nil
}

// installChecker wires the invariant oracle over a built simulation: the
// checker observes every router's arbitration through the oracle hooks
// and sweeps the conservation/bounds/watchdog invariants on a periodic
// self-rescheduling event. The sweep only reads simulation state, so an
// uncompromised checked run stays byte-identical to an unchecked one.
func installChecker(eng *sim.Engine, net *network.Network, gen *workload.Generator, period sim.Ticks, met *obs.SimMetrics) *check.Checker {
	routers := make([]*router.Router, net.Nodes())
	for node := 0; node < net.Nodes(); node++ {
		routers[node] = net.Router(topology.Node(node))
	}
	var rings []*obs.FlightRing
	if met != nil {
		rings = make([]*obs.FlightRing, len(routers))
		for i := range routers {
			rings[i] = &met.Flight[i]
		}
	}
	chk := check.New(check.Config{RouterPeriod: period}, check.Probes{
		Injected:          func() int64 { return net.TotalCounters().Injected },
		Delivered:         func() int64 { return net.TotalCounters().DeliveredLocal },
		Buffered:          net.Buffered,
		LinkFlight:        net.LinkFlight,
		PendingInjections: gen.PendingInjections,
		ArenaLive:         gen.ArenaLive,
		Sunk:              gen.Sunk,
		Stop:              eng.Stop,
		Routers:           routers,
		FlightRings:       rings,
	})
	for _, r := range routers {
		r.SetOracle(chk)
	}
	interval := chk.Interval()
	var sweep func()
	sweep = func() {
		chk.Sweep(eng.Now())
		if chk.Err() == nil {
			eng.ScheduleDelay(interval, sweep)
		}
	}
	eng.ScheduleDelay(interval, sweep)
	return chk
}

// cancelPollCycles is how often (in router cycles) a timing run polls
// its context for cancellation; it bounds how stale a cancel can go
// unnoticed inside one simulation.
const cancelPollCycles = 512

// runTiming executes one timing simulation and returns its point.
// Cancelling ctx stops the simulation within cancelPollCycles router
// cycles and returns the context's error.
func runTiming(ctx context.Context, tr *timingRun) (ResultPoint, error) {
	sp, rcfg := tr.spec, tr.router
	width, height := sp.Topology.Width, sp.Topology.Height
	warmFrac := sp.Timing.WarmupFraction
	switch {
	case warmFrac == 0:
		warmFrac = 0.2
	case warmFrac < 0:
		warmFrac = 0
	}
	end := sim.Ticks(sp.Timing.Cycles) * rcfg.RouterPeriod
	warmup := sim.Ticks(float64(end) * warmFrac)

	eng := sim.NewEngine()
	col := stats.NewCollector(warmup)
	var epochs *stats.EpochSeries
	epochLen := sim.Ticks(sp.Timing.EpochCycles) * rcfg.RouterPeriod
	if epochLen > 0 {
		epochs = col.TrackEpochs(epochLen)
		epochs.Reserve(int(end/epochLen) + 1)
	}
	ncfg := network.Config{Width: width, Height: height, Router: rcfg}
	var net *network.Network
	var sg *sim.ShardGroup
	var err error
	if shards := sp.Timing.TorusShards; shards > 0 {
		part := topology.PartitionRows(topology.NewTorus(width, height), shards)
		members := make([]*sim.Engine, part.Shards())
		for i := range members {
			members[i] = sim.NewEngine()
		}
		pb := sim.NewPostBuffer(width * height)
		net, err = network.NewSharded(ncfg, eng, members, part, pb, col)
		if err != nil {
			return ResultPoint{}, err
		}
		sg = sim.NewShardGroup(eng, members, pb, net.Lookahead())
		sg.SetEdge(rcfg.RouterPeriod, 0, net.TickShard)
		defer sg.Close()
	} else {
		net, err = network.New(ncfg, eng, col)
		if err != nil {
			return ResultPoint{}, err
		}
	}
	wcfg, err := tr.workloadConfig(net.Torus())
	if err != nil {
		return ResultPoint{}, err
	}
	gen := workload.New(wcfg, net, eng, col)
	eng.AddClock(rcfg.RouterPeriod, 0, gen)
	var met *obs.SimMetrics
	if sp.Metrics {
		met = obs.NewSimMetrics(net.Nodes(), net.NumLinks())
		for node := 0; node < net.Nodes(); node++ {
			r := net.Router(topology.Node(node))
			r.SetMetrics(&met.Routers[node])
			r.SetFlight(&met.Flight[node])
		}
		net.SetMetrics(&met.Network)
	}
	var chk *check.Checker
	if sp.Check {
		chk = installChecker(eng, net, gen, rcfg.RouterPeriod, met)
	}
	if err := ctx.Err(); err != nil {
		return ResultPoint{}, err
	}
	// A self-rescheduling no-op event polls the context; it never mutates
	// simulation state, so an uncancelled run's results do not depend on
	// the poll.
	interval := sim.Ticks(cancelPollCycles) * rcfg.RouterPeriod
	var poll func()
	poll = func() {
		if ctx.Err() != nil {
			eng.Stop()
			return
		}
		eng.ScheduleDelay(interval, poll)
	}
	eng.ScheduleDelay(interval, poll)
	if sg != nil {
		sg.Run(end)
	} else {
		eng.Run(end)
	}
	if chk != nil {
		chk.Final(eng.Now())
		if err := chk.Err(); err != nil {
			return ResultPoint{}, err
		}
	}
	if err := ctx.Err(); err != nil {
		return ResultPoint{}, err
	}
	if wcfg.Record != nil {
		if err := wcfg.Record.WriteFile(sp.Workload.RecordTo); err != nil {
			return ResultPoint{}, err
		}
	}

	bnf := col.BNF(net.Nodes(), end)
	c := net.TotalCounters()
	lat := col.LatencySummaryNS()
	pt := ResultPoint{
		Rate:         tr.rate,
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
	}
	if epochs != nil {
		pt.EpochFlits = epochs.Values()
		// The last epoch may be partial (deliveries in flight at the end of
		// the run); exclude it from the oscillation measure.
		pt.ThroughputCoV = epochs.CoefficientOfVariation(int(warmup/epochLen), len(pt.EpochFlits)-1)
	}
	if met != nil {
		met.Flush(end)
		pt.Metrics = met.Snapshot(rcfg.Kind.String(), end)
	}
	return pt, nil
}

// Panel is one BNF chart: several algorithms swept over the same loads.
type Panel struct {
	Title  string
	Rates  []float64
	Series []stats.Series
}

// Figure10Kinds are the five algorithms of Figure 10.
var Figure10Kinds = []core.Kind{
	core.KindPIM1, core.KindWFABase, core.KindWFARotary,
	core.KindSPAABase, core.KindSPAARotary,
}

// Figure11Kinds are the three algorithms of the scaling studies.
var Figure11Kinds = []core.Kind{core.KindPIM1, core.KindWFARotary, core.KindSPAARotary}

// Rates4x4 and friends are the default load sweeps; they span from well
// below saturation to beyond it.
var (
	Rates4x4   = []float64{0.005, 0.01, 0.02, 0.03, 0.04, 0.05, 0.065, 0.08, 0.1, 0.13}
	Rates8x8   = []float64{0.002, 0.005, 0.01, 0.015, 0.02, 0.025, 0.03, 0.04, 0.055, 0.075}
	Rates12x12 = []float64{0.001, 0.003, 0.006, 0.01, 0.014, 0.018, 0.024, 0.032, 0.045, 0.06}
)

func (o Options) rates(full []float64) []float64 {
	want := len(full)
	if o.Quick {
		want = (len(full) + 1) / 2
	}
	if o.MaxRatePoints > 0 && o.MaxRatePoints < want {
		want = o.MaxRatePoints
	}
	if want >= len(full) {
		return full
	}
	if want < 2 {
		want = 2
	}
	// Evenly subsample, always keeping the lightest and heaviest loads.
	out := make([]float64, 0, want)
	for i := 0; i < want; i++ {
		idx := i * (len(full) - 1) / (want - 1)
		out = append(out, full[idx])
	}
	return out
}

// StandaloneCurve is one algorithm's standalone match-rate curve.
type StandaloneCurve struct {
	Label  string
	Values []float64
}

// Figure8Result holds the standalone load sweep.
type Figure8Result struct {
	// LoadFractions of the MCM saturation load (horizontal axis).
	LoadFractions  []float64
	SaturationLoad float64
	Curves         []StandaloneCurve
}

// Figure8Kinds are the algorithms of Figures 8 and 9.
var Figure8Kinds = []core.Kind{
	core.KindMCM, core.KindWFABase, core.KindPIM, core.KindPIM1, core.KindSPAABase,
}

// Figure9Result holds the occupancy sweep at the MCM saturation load.
type Figure9Result struct {
	Occupancies []float64
	Curves      []StandaloneCurve
}
