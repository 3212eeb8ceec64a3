// Package experiment reproduces the paper's evaluation: each figure of §5
// is a canned Spec (FigureSpecs) that a Runner executes into a Result.
// The Result is the one shape every consumer reads: its series are the
// curves the paper plots, Result.Table and Result.Plot render them, and
// Verify checks the paper's claims against the figures' Results. The
// cmd/sweep tool and the repository's benchmarks are thin wrappers
// around this package.
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

// The canned figures' run lengths (FigureSpecs): the paper's 75,000
// router cycles per timing run, or 15,000 at quick fidelity, which
// shortens the runs for CI and benchmarks. Standalone figures run 1,000
// iterations, or 400 at quick fidelity.
const (
	FigureCycles      = 75000
	QuickFigureCycles = 15000
)

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
func installChecker(eng *sim.Engine, net *network.Network, gen *workload.Generator) *check.Checker {
	routers := make([]*router.Router, net.Nodes())
	for node := range routers {
		routers[node] = net.Router(topology.Node(node))
	}
	chk := check.New(check.Probes{
		Injected:          func() int64 { return net.TotalCounters().Injected },
		Delivered:         func() int64 { return net.TotalCounters().DeliveredLocal },
		Buffered:          net.Buffered,
		LinkFlight:        net.LinkFlight,
		PendingInjections: gen.PendingInjections,
		ArenaLive:         gen.ArenaLive,
		Sunk:              gen.Sunk,
		Stop:              eng.Stop,
		Routers:           routers,
	})
	chk.Schedule(eng)
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
	net, err := network.New(network.Config{Width: sp.Topology.Width, Height: sp.Topology.Height, Router: rcfg}, eng, col)
	if err != nil {
		return ResultPoint{}, err
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
		chk = installChecker(eng, net, gen)
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
	eng.Run(end)
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

// subsample evenly picks want of the rates, always keeping the lightest
// and heaviest loads; a quick figure keeps half of each sweep.
func subsample(rates []float64, want int) []float64 {
	if want >= len(rates) {
		return rates
	}
	if want < 2 {
		want = 2
	}
	out := make([]float64, 0, want)
	for i := 0; i < want; i++ {
		out = append(out, rates[i*(len(rates)-1)/(want-1)])
	}
	return out
}

// Figure8Kinds are the algorithms of Figures 8 and 9.
var Figure8Kinds = []core.Kind{
	core.KindMCM, core.KindWFABase, core.KindPIM, core.KindPIM1, core.KindSPAABase,
}
