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
	"alpha21364/internal/traffic"
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

// NoWarmup is a TimingSetup.WarmupFraction sentinel requesting that no
// cycles be excluded from statistics. (A literal 0 keeps the 0.2 default
// so existing callers are unaffected.)
const NoWarmup = -1.0

// TimingSetup describes one timing-model run.
type TimingSetup struct {
	Width, Height  int
	Kind           core.Kind
	Pattern        traffic.Pattern
	Rate           float64 // new transactions per node per router cycle
	MaxOutstanding int     // 0 means the 21364 default of 16
	ScalePipeline  bool    // Figure 11a's 2x-deep, 2x-fast pipeline
	Cycles         int     // router cycles to simulate
	// Process names the arrival process ("" or "bernoulli" is the paper's
	// Bernoulli law; "onoff" is bursty, "deterministic" is fixed-rate; see
	// workload.ProcessNames).
	Process string
	// Model names the transaction model ("" or "coherence" is the paper's
	// 2-hop/3-hop mix; "datagram" is the open-loop single-packet model).
	Model string
	// RecordTo, when non-empty, captures the run's injection stream to a
	// trace file at that path.
	RecordTo string
	// ReplayFrom, when non-empty, replays a recorded trace instead of
	// generating traffic; Pattern, Rate, Process, and Model are ignored.
	ReplayFrom string
	// WarmupFraction is the share of the run excluded from statistics.
	// 0 means the 0.2 default; a negative value (use NoWarmup) disables
	// the warmup entirely so statistics cover the whole run.
	WarmupFraction float64
	Seed           uint64
	// Check enables the online invariant oracle (internal/check): grant
	// legality on every arbitration, periodic conservation/bounds sweeps
	// with a packet-arena cross-check, and a deadlock watchdog. The first
	// violation aborts the run with the structured report as the error.
	// Checking never perturbs the simulation, so a clean checked run's
	// results are identical to an unchecked one's.
	Check bool
	// Metrics enables the telemetry layer (internal/obs): per-router
	// occupancy/stall/arbitration counters, per-link utilization, sink
	// throughput, and a flight recorder per router (dumped by the deadlock
	// watchdog when Check is also set). Like Check, telemetry only
	// observes: the run's results are identical either way; the snapshot
	// lands in TimingResult.Metrics.
	Metrics bool
	// EpochCycles, when positive, tracks delivered flits in epochs of that
	// many router cycles, exposing the cyclic delivered-throughput pattern
	// the paper describes for saturated networks (§3.4).
	EpochCycles int
	// TorusShards, when positive, partitions the torus into that many
	// contiguous row bands, each owning its own tick-wheel engine,
	// synchronized conservatively with lookahead equal to the link
	// latency (CMB discipline; see internal/sim.ShardGroup). Results are
	// byte-identical to a monolithic run at any shard count; 0 keeps the
	// single-engine path. Must be at most Height.
	TorusShards int
}

// workloadConfig expands the setup into the workload decomposition:
// either a replay of a recorded trace, or the configured pattern ×
// process × model combination (defaulting to the paper's uniform ×
// Bernoulli × coherence). period is the router clock the run will use,
// stamped into recorded traces and checked against replayed ones.
func (s TimingSetup) workloadConfig(t topology.Torus, period sim.Ticks) (workload.Config, error) {
	var cfg workload.Config
	if s.ReplayFrom != "" {
		trace, err := workload.ReadTraceFile(s.ReplayFrom)
		if err != nil {
			return cfg, err
		}
		replay := workload.NewReplay(trace)
		if err := replay.CheckCompatible(s.Width, s.Height, period); err != nil {
			return cfg, err
		}
		cfg = workload.Config{Process: workload.NewSilent(), Model: replay, Seed: s.Seed}
	} else {
		if err := s.Pattern.Validate(t); err != nil {
			return cfg, err
		}
		tcfg := traffic.DefaultConfig(s.Pattern, s.Rate)
		tcfg.Seed = s.Seed
		if s.MaxOutstanding > 0 {
			tcfg.MaxOutstanding = s.MaxOutstanding
		}
		cfg = tcfg.Workload(t)
		proc, err := workload.NewProcess(s.Process, s.Rate)
		if err != nil {
			return cfg, err
		}
		cfg.Process = proc
		if s.Model != "" {
			model, err := workload.NewModel(s.Model)
			if err != nil {
				return cfg, err
			}
			cfg.Model = model
		}
	}
	if s.RecordTo != "" {
		cfg.Record = &workload.Trace{
			Width: s.Width, Height: s.Height, Period: period,
			Label: fmt.Sprintf("kind=%v pattern=%v process=%s rate=%g seed=%d cycles=%d",
				s.Kind, s.Pattern, cfg.Process.Name(), s.Rate, s.Seed, s.Cycles),
		}
	}
	return cfg, nil
}

// TimingResult is one BNF point plus diagnostic counters.
type TimingResult struct {
	stats.Point
	Completed    int64
	DrainEntries int64
	Collisions   int64
	MeanHops     float64
	// LatencyP50NS, LatencyP95NS, and LatencyP99NS are the packet-latency
	// quantiles in nanoseconds, exact to the tick below 5.46 µs (see
	// stats.Collector.PercentileLatencyNS).
	LatencyP50NS float64
	LatencyP95NS float64
	LatencyP99NS float64
	// EpochFlits and ThroughputCoV are filled when TimingSetup.EpochCycles
	// is set: delivered flits per epoch and the coefficient of variation
	// of the post-warmup epochs (a saturation-oscillation measure).
	EpochFlits    []int64
	ThroughputCoV float64
	// Metrics is the run's telemetry snapshot when TimingSetup.Metrics is
	// set, nil otherwise.
	Metrics *obs.Snapshot
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

// cancelPollCycles is how often (in router cycles) a context-supervised
// timing run polls for cancellation; it bounds how stale a cancel can go
// unnoticed inside one simulation.
const cancelPollCycles = 512

// RunTiming executes one timing simulation and returns its BNF point.
func RunTiming(s TimingSetup) (TimingResult, error) {
	return runTiming(nil, s, nil)
}

// RunTimingCtx is RunTiming under a context: cancellation stops the
// simulation within cancelPollCycles router cycles and returns the
// context's error. A nil context behaves like RunTiming.
func RunTimingCtx(ctx context.Context, s TimingSetup) (TimingResult, error) {
	return runTiming(ctx, s, nil)
}

// RunTimingWithRouter is RunTiming with a hook that may adjust the router
// configuration before the network is built; the ablation benchmarks use
// it to vary pipeline depth and initiation interval independently of the
// per-algorithm defaults.
func RunTimingWithRouter(s TimingSetup, mutate func(*router.Config)) (TimingResult, error) {
	return runTiming(nil, s, mutate)
}

func runTiming(ctx context.Context, s TimingSetup, mutate func(*router.Config)) (TimingResult, error) {
	rcfg := router.DefaultConfig(s.Kind)
	rcfg.Seed = s.Seed
	if s.ScalePipeline {
		rcfg = rcfg.ScalePipeline()
	}
	if mutate != nil {
		mutate(&rcfg)
	}
	warmFrac := s.WarmupFraction
	switch {
	case warmFrac == 0:
		warmFrac = 0.2
	case warmFrac < 0:
		warmFrac = 0
	}
	end := sim.Ticks(s.Cycles) * rcfg.RouterPeriod
	warmup := sim.Ticks(float64(end) * warmFrac)

	eng := sim.NewEngine()
	col := stats.NewCollector(warmup)
	var epochs *stats.EpochSeries
	if s.EpochCycles > 0 {
		epochLen := sim.Ticks(s.EpochCycles) * rcfg.RouterPeriod
		epochs = col.TrackEpochs(epochLen)
		epochs.Reserve(int(end/epochLen) + 1)
	}
	ncfg := network.Config{Width: s.Width, Height: s.Height, Router: rcfg}
	var net *network.Network
	var sg *sim.ShardGroup
	var err error
	if s.TorusShards > 0 {
		if s.TorusShards > s.Height {
			return TimingResult{}, fmt.Errorf("experiment: torus shards %d exceeds height %d", s.TorusShards, s.Height)
		}
		part := topology.PartitionRows(topology.NewTorus(s.Width, s.Height), s.TorusShards)
		members := make([]*sim.Engine, part.Shards())
		for i := range members {
			members[i] = sim.NewEngine()
		}
		pb := sim.NewPostBuffer(s.Width * s.Height)
		net, err = network.NewSharded(ncfg, eng, members, part, pb, col)
		if err != nil {
			return TimingResult{}, err
		}
		sg = sim.NewShardGroup(eng, members, pb, net.Lookahead())
		sg.SetEdge(rcfg.RouterPeriod, 0, net.TickShard)
		defer sg.Close()
	} else {
		net, err = network.New(ncfg, eng, col)
		if err != nil {
			return TimingResult{}, err
		}
	}
	wcfg, err := s.workloadConfig(net.Torus(), rcfg.RouterPeriod)
	if err != nil {
		return TimingResult{}, err
	}
	gen := workload.New(wcfg, net, eng, col)
	eng.AddClock(rcfg.RouterPeriod, 0, gen)
	var met *obs.SimMetrics
	if s.Metrics {
		met = obs.NewSimMetrics(net.Nodes(), net.NumLinks())
		for node := 0; node < net.Nodes(); node++ {
			r := net.Router(topology.Node(node))
			r.SetMetrics(&met.Routers[node])
			r.SetFlight(&met.Flight[node])
		}
		net.SetMetrics(&met.Network)
	}
	var chk *check.Checker
	if s.Check {
		chk = installChecker(eng, net, gen, rcfg.RouterPeriod, met)
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return TimingResult{}, err
		}
		// A self-rescheduling no-op event polls the context; it never
		// mutates simulation state, so an uncancelled supervised run stays
		// byte-identical to an unsupervised one.
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
	}
	if sg != nil {
		sg.Run(end)
	} else {
		eng.Run(end)
	}
	if chk != nil {
		chk.Final(eng.Now())
		if err := chk.Err(); err != nil {
			return TimingResult{}, err
		}
	}
	if ctx != nil && ctx.Err() != nil {
		return TimingResult{}, ctx.Err()
	}
	if wcfg.Record != nil {
		if err := wcfg.Record.WriteFile(s.RecordTo); err != nil {
			return TimingResult{}, err
		}
	}

	point := col.BNF(net.Nodes(), end)
	point.OfferedRate = s.Rate
	c := net.TotalCounters()
	lat := col.LatencySummaryNS()
	res := TimingResult{
		Point:        point,
		Completed:    gen.Completed(),
		DrainEntries: c.DrainEntries,
		Collisions:   c.Collisions,
		MeanHops:     col.MeanHops(),
		LatencyP50NS: lat.P50NS,
		LatencyP95NS: lat.P95NS,
		LatencyP99NS: lat.P99NS,
	}
	if epochs != nil {
		res.EpochFlits = epochs.Values()
		warmEpochs := int(warmup / (sim.Ticks(s.EpochCycles) * rcfg.RouterPeriod))
		// The last epoch may be partial (deliveries in flight at the end of
		// the run); exclude it from the oscillation measure.
		res.ThroughputCoV = epochs.CoefficientOfVariation(warmEpochs, len(res.EpochFlits)-1)
	}
	if met != nil {
		met.Flush(end)
		res.Metrics = met.Snapshot(s.Kind.String(), end)
	}
	return res, nil
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
