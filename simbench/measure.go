package main

// measure.go holds the untraced measurements: the timed Runner runs
// behind the end-to-end metrics, the set-up timing, and the oracle pass.

import (
	"context"
	"runtime"
	"runtime/metrics"
	"time"

	"alpha21364/internal/core"
	"alpha21364/internal/experiment"
	"alpha21364/internal/network"
	"alpha21364/internal/router"
	"alpha21364/internal/sim"
	"alpha21364/internal/standalone"
	"alpha21364/internal/stats"
	"alpha21364/internal/topology"
	"alpha21364/internal/workload"
)

// rep is one untraced run of a workload's job through the Runner.
type rep struct {
	wall, firstPoint float64
	// ref is the reference job's host seconds, timed right after the run.
	ref float64
	// overhead is Runner time outside the interval in which points run:
	// spec expansion before the first dispatch and assembly after the
	// last completion. busy is the summed per-point host time.
	overhead, busy float64
	pointSeconds   []float64
	allocs         float64
	peakHeapBytes  float64
	points         []experiment.ResultPoint // job order
	done           []bool
	err            error
}

// timedRun runs the job once and times it from the Runner's event
// stream. Per-point times rely on the Runner dispatching jobs in job
// order to whichever worker is free: the first `workers` jobs start with
// the run, and job workers+k-1 starts when the k-th point completes.
func timedRun(spec experiment.Spec, pts []point) rep {
	alone := isStandalone(spec)
	r := rep{points: make([]experiment.ResultPoint, len(pts)), done: make([]bool, len(pts))}
	doneAt := make([]time.Duration, len(pts))
	completions := make([]time.Duration, 0, len(pts))
	var start time.Time
	var runStart time.Duration
	sink := func(e experiment.Event) {
		at := time.Since(start)
		switch e.Type {
		case experiment.EventRunStart:
			runStart = at
		case experiment.EventPointDone:
			completions = append(completions, at)
			if i := pointIndex(pts, e.Series, e.Point, alone); i >= 0 {
				r.points[i], r.done[i], doneAt[i] = *e.Point, true, at
			}
		}
	}
	runner := experiment.NewRunner(experiment.WithWorkers(workers), experiment.WithEventSink(sink))

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stopSampler := sampleHeap()
	start = time.Now()
	_, r.err = runner.Run(context.Background(), spec)
	wall := time.Since(start)
	r.peakHeapBytes = float64(stopSampler())
	runtime.ReadMemStats(&after)

	r.wall = wall.Seconds()
	r.allocs = float64(after.Mallocs - before.Mallocs)
	if len(completions) == 0 {
		r.overhead = r.wall
		return r
	}
	r.firstPoint = completions[0].Seconds()
	r.overhead = (runStart + wall - completions[len(completions)-1]).Seconds()
	for i := range pts {
		if !r.done[i] {
			continue
		}
		began := runStart
		if k := i - workers; k >= 0 && k < len(completions) {
			began = completions[k]
		}
		d := (doneAt[i] - began).Seconds()
		r.pointSeconds = append(r.pointSeconds, d)
		r.busy += d
	}
	return r
}

// sampleHeap polls the bytes held by live and not-yet-swept heap objects
// every millisecond until the returned stop function is called, which
// returns the highest value seen.
func sampleHeap() (stop func() uint64) {
	quit := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var max uint64
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > max {
				max = v
			}
			select {
			case <-quit:
				peak <- max
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(quit)
		return <-peak
	}
}

// warmupFraction is the Spec's default share of a timing run excluded
// from statistics.
const warmupFraction = 0.2

// workloadConfig is the workload a timing spec point runs: the Spec's
// default uniform pattern, Bernoulli arrivals and coherence model.
func workloadConfig(spec experiment.Spec, p point, t topology.Torus) workload.Config {
	maxOut := spec.Workload.MaxOutstanding
	if maxOut == 0 {
		maxOut = 16 // the Spec's default: the 21364's outstanding-miss limit
	}
	return workload.Config{
		Pattern:        workload.NewUniform(t),
		Process:        workload.NewBernoulli(p.value),
		Model:          workload.NewCoherence(),
		MaxOutstanding: maxOut,
		Seed:           spec.Timing.Seed,
	}
}

// standaloneConfig is the model configuration of a standalone spec point.
func standaloneConfig(sa *experiment.StandaloneSpec, load float64) standalone.Config {
	cfg := standalone.DefaultConfig(load)
	cfg.Cycles = sa.Cycles
	if sa.Seed != 0 {
		cfg.Seed = sa.Seed
	}
	return cfg
}

// newKernel builds a standalone point's arbiter with the random stream
// standalone.Run would give it; RunArbiter leaves seeding to its caller.
func newKernel(k core.Kind, cfg standalone.Config) core.Arbiter {
	return core.New(k, sim.NewRNG(cfg.Seed^0x9747b28c))
}

// setupOnce builds every point of the job up to its first simulated
// cycle and returns the summed host seconds. A torus point is its
// engine, collector, network.New and workload.New; a standalone point,
// whose model is private to standalone.RunArbiter, is its kernel plus a
// one-iteration RunArbiter.
func setupOnce(spec experiment.Spec, pts []point) (float64, error) {
	var total time.Duration
	for _, p := range pts {
		start := time.Now()
		if isStandalone(spec) {
			cfg := standaloneConfig(spec.Standalone, p.value)
			cfg.Cycles = 1
			standalone.RunArbiter(newKernel(p.kind, cfg), cfg)
		} else {
			rcfg := router.DefaultConfig(p.kind)
			rcfg.Seed = spec.Timing.Seed
			end := sim.Ticks(spec.Timing.Cycles) * rcfg.RouterPeriod
			eng := sim.NewEngine()
			col := stats.NewCollector(sim.Ticks(float64(end) * warmupFraction))
			net, err := network.New(network.Config{
				Width: spec.Topology.Width, Height: spec.Topology.Height, Router: rcfg,
			}, eng, col)
			if err != nil {
				return 0, err
			}
			gen := workload.New(workloadConfig(spec, p, net.Torus()), net, eng, col)
			eng.AddClock(rcfg.RouterPeriod, 0, gen)
		}
		total += time.Since(start)
	}
	return total.Seconds(), nil
}

// measureSetup runs setupOnce after a collection and returns its host
// seconds and heap allocations.
func measureSetup(spec experiment.Spec, pts []point) (secs, allocs float64, err error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	secs, err = setupOnce(spec, pts)
	runtime.ReadMemStats(&after)
	return secs, float64(after.Mallocs - before.Mallocs), err
}

// oracleSpec is the job's first point alone, with the invariant oracle on.
func oracleSpec(spec experiment.Spec) experiment.Spec {
	s := spec
	s.Arbiters = spec.Arbiters[:1]
	s.Check = true
	if isStandalone(spec) {
		sa := *spec.Standalone
		sa.Values = sa.Values[:1]
		s.Standalone = &sa
	} else {
		w := *spec.Workload
		w.Rates = w.Rates[:1]
		s.Workload = &w
	}
	return s
}

func runOracle(spec experiment.Spec) error {
	_, err := experiment.NewRunner(experiment.WithWorkers(1)).Run(context.Background(), oracleSpec(spec))
	return err
}
