package experiment

// bench.go is the first-class benchmark subsystem: a fixed suite of
// Spec-driven workloads (executed through the ordinary Runner, so the
// benchmark measures exactly the code paths the figures use) timed and
// alloc-counted into a machine-readable BenchReport. cmd/sweep -bench
// writes the report as BENCH_<n>.json; the committed baseline plus
// BenchReport.Compare form the CI regression gate.
//
// Cross-machine comparability: raw ns/simulated-cycle tracks the host's
// single-thread speed, so every report embeds a calibration measurement —
// the nanoseconds per iteration of a fixed RNG-summing loop — and Compare
// judges the calibration-normalized cost (ns per cycle divided by ns per
// calibration iteration). Allocation counts are machine-independent and
// compared directly.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"alpha21364/internal/core"
	"alpha21364/internal/sim"
)

// BenchVersion is the BENCH_*.json schema version.
const BenchVersion = 10

// BenchEntry is one benchmark workload: a Spec plus the simulated-cycle
// accounting needed to normalize its cost.
type BenchEntry struct {
	Name string
	Spec Spec
	// Arbiter, when non-empty, makes this an arbitration microbenchmark:
	// the named kernel's Arbitrate over a fixed matrix ladder, no
	// simulation around it. Spec is ignored; the entry's NSPerSimCycle
	// is nanoseconds per arbitration.
	Arbiter string
}

// BenchSuite returns the fixed benchmark workloads:
//
//   - figure8-saturated: the standalone matching model at the Figure 8
//     saturated-load point, all five Figure 8 algorithms;
//   - timing-8x8-saturated: the timing model deep in saturation (the
//     regime the paper's Figures 10-11 comparisons depend on);
//   - timing-16x16-saturated: a large saturated torus;
//   - timing-4x4-matrix: a small arbiter x rate matrix, the shape of the
//     sweep workloads;
//   - arbitrate-<kind>: one entry per arbitration kernel, timing bare
//     Arbitrate calls over a deterministic matrix ladder (the same
//     workload as internal/core's BenchmarkArbitrate), so a kernel
//     regression is attributed to its algorithm rather than smeared
//     across whole-simulation entries.
func BenchSuite() []BenchEntry {
	entries := benchSimEntries()
	for k := core.Kind(0); k < core.NumKinds; k++ {
		entries = append(entries, BenchEntry{
			Name:    "arbitrate-" + k.String(),
			Arbiter: k.String(),
		})
	}
	return entries
}

func benchSimEntries() []BenchEntry {
	return []BenchEntry{
		{
			Name: "figure8-saturated",
			Spec: NewSpec(
				WithName("bench figure8 saturated"),
				WithArbiters("MCM", "WFA-base", "PIM", "PIM1", "SPAA-base"),
				WithStandaloneSweep(AxisLoad, 1.0),
				WithCycles(1000),
				WithSeed(1),
			),
		},
		{
			Name: "timing-8x8-saturated",
			Spec: NewSpec(
				WithName("bench timing 8x8 saturated"),
				WithTopology(8, 8),
				WithArbiters("SPAA-rotary"),
				WithRates(0.09),
				WithMaxOutstanding(64),
				WithCycles(4000),
				WithSeed(1),
			),
		},
		{
			Name: "timing-16x16-saturated",
			Spec: NewSpec(
				WithName("bench timing 16x16 saturated"),
				WithTopology(16, 16),
				WithArbiters("SPAA-rotary"),
				WithRates(0.09),
				WithMaxOutstanding(64),
				WithCycles(1500),
				WithSeed(1),
			),
		},
		{
			Name: "timing-4x4-matrix",
			Spec: NewSpec(
				WithName("bench timing 4x4 matrix"),
				WithTopology(4, 4),
				WithArbiters("SPAA-rotary", "PIM1"),
				WithRates(0.01, 0.03),
				WithCycles(2000),
				WithSeed(1),
			),
		},
	}
}

// BenchEntryResult is one measured workload.
type BenchEntryResult struct {
	Name string `json:"name"`
	// Points is the number of simulation points the entry ran.
	Points int `json:"points"`
	// SimCycles is the total simulated cycles across those points
	// (router cycles for timing entries, model iterations for standalone).
	SimCycles int64 `json:"sim_cycles"`
	ElapsedNS int64 `json:"elapsed_ns"`
	// NSPerSimCycle is the headline cost metric: wall nanoseconds per
	// simulated cycle.
	NSPerSimCycle float64 `json:"ns_per_sim_cycle"`
	// PointsPerSec is simulation points completed per wall second.
	PointsPerSec float64 `json:"points_per_sec"`
	// AllocsPerOp is heap allocations per simulation point.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// AllocsPerCycle is heap allocations per simulated cycle — the
	// zero-allocation hot path's figure of merit.
	AllocsPerCycle float64 `json:"allocs_per_cycle"`
}

// BenchReport is the BENCH_*.json document.
type BenchReport struct {
	Version int `json:"version"`
	// CalibrationNS is the nanoseconds per iteration of a fixed
	// CPU-bound loop on the measuring machine; Compare divides
	// NSPerSimCycle by it so reports from different machines can be
	// compared.
	CalibrationNS float64            `json:"calibration_ns"`
	GoVersion     string             `json:"go_version,omitempty"`
	Entries       []BenchEntryResult `json:"entries"`
}

// calibrationIters is the iteration count of the calibration loop; at
// ~1-2 ns/iter it costs a few tens of milliseconds.
const calibrationIters = 20_000_000

// calibrate times the fixed RNG-summing loop.
func calibrate() float64 {
	rng := sim.NewRNG(1)
	var sum uint64
	start := time.Now()
	for i := 0; i < calibrationIters; i++ {
		sum += rng.Uint64()
	}
	elapsed := time.Since(start)
	if sum == 0 { // keep the loop observable
		return 0
	}
	return float64(elapsed.Nanoseconds()) / calibrationIters
}

// arbitrateBenchCalls is the Arbitrate call count per microbench entry;
// at a few hundred nanoseconds per call an entry costs tens of
// milliseconds.
const arbitrateBenchCalls = 100_000

// arbitrateBenchMatrices prebuilds the deterministic density ladder of
// router-shaped request matrices the microbench entries share (the same
// construction as internal/core's BenchmarkArbitrate).
func arbitrateBenchMatrices() []*core.Matrix {
	rng := sim.NewRNG(0xB157)
	ms := make([]*core.Matrix, 32)
	for i := range ms {
		m := core.NewRouterMatrix()
		density := float64(i%8+1) / 8
		key := uint64(1)
		for r := 0; r < m.Rows; r++ {
			for c := 0; c < m.Cols; c++ {
				if rng.Bernoulli(density) {
					m.Set(r, c, int64(rng.Intn(1000)), key, 0)
					key++
				}
			}
		}
		ms[i] = m
	}
	return ms
}

// runArbitrateBench times bare Arbitrate calls for one kernel over the
// shared matrix ladder. ns/arbitration lands in NSPerSimCycle (SimCycles
// is the call count), and the allocation accounting runs after a warmup
// pass so the scratch-sizing allocations are excluded — steady state must
// stay at zero.
func runArbitrateBench(kindName string, ms []*core.Matrix) (BenchEntryResult, error) {
	kind, err := core.ParseKind(kindName)
	if err != nil {
		return BenchEntryResult{}, err
	}
	arb := core.New(kind, sim.NewRNG(2))
	for _, m := range ms {
		arb.Arbitrate(m)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < arbitrateBenchCalls; i++ {
		arb.Arbitrate(ms[i%len(ms)])
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	mallocs := int64(after.Mallocs - before.Mallocs)
	r := BenchEntryResult{
		Name:          "arbitrate-" + kind.String(),
		Points:        len(ms),
		SimCycles:     arbitrateBenchCalls,
		ElapsedNS:     elapsed.Nanoseconds(),
		NSPerSimCycle: float64(elapsed.Nanoseconds()) / arbitrateBenchCalls,
		AllocsPerOp:   float64(mallocs) / float64(len(ms)),
	}
	r.AllocsPerCycle = float64(mallocs) / arbitrateBenchCalls
	if elapsed > 0 {
		r.PointsPerSec = float64(arbitrateBenchCalls) / elapsed.Seconds()
	}
	return r, nil
}

// entryCycles derives the simulated-cycle total of a spec's expansion.
func entryCycles(sp Spec, points int) int64 {
	perPoint := int64(0)
	switch {
	case sp.Mode == ModeStandalone && sp.Standalone != nil:
		perPoint = int64(sp.Standalone.Cycles)
	case sp.Timing != nil:
		perPoint = int64(sp.Timing.Cycles)
	}
	return perPoint * int64(points)
}

// RunBench executes the benchmark suite serially (a single Runner worker,
// so wall time and allocation counts measure one simulation at a time)
// and returns the report.
func RunBench(ctx context.Context) (*BenchReport, error) {
	report := &BenchReport{
		Version:       BenchVersion,
		CalibrationNS: calibrate(),
		GoVersion:     runtime.Version(),
	}
	runner := NewRunner(WithWorkers(1))
	var arbMatrices []*core.Matrix
	for _, entry := range BenchSuite() {
		if entry.Arbiter != "" {
			if arbMatrices == nil {
				arbMatrices = arbitrateBenchMatrices()
			}
			r, err := runArbitrateBench(entry.Arbiter, arbMatrices)
			if err != nil {
				return nil, fmt.Errorf("bench %s: %w", entry.Name, err)
			}
			report.Entries = append(report.Entries, r)
			continue
		}
		if err := entry.Spec.Validate(); err != nil {
			return nil, fmt.Errorf("bench %s: %w", entry.Name, err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		res, err := runner.Run(ctx, entry.Spec)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", entry.Name, err)
		}
		points := 0
		for _, s := range res.Series {
			points += len(s.Points)
		}
		cycles := entryCycles(entry.Spec, points)
		mallocs := int64(after.Mallocs - before.Mallocs)
		r := BenchEntryResult{
			Name:      entry.Name,
			Points:    points,
			SimCycles: cycles,
			ElapsedNS: elapsed.Nanoseconds(),
		}
		if cycles > 0 {
			r.NSPerSimCycle = float64(r.ElapsedNS) / float64(cycles)
			r.AllocsPerCycle = float64(mallocs) / float64(cycles)
		}
		if points > 0 {
			r.AllocsPerOp = float64(mallocs) / float64(points)
		}
		if elapsed > 0 {
			r.PointsPerSec = float64(points) / elapsed.Seconds()
		}
		report.Entries = append(report.Entries, r)
	}
	return report, nil
}

// WriteFile saves the report as an indented JSON document.
func (r *BenchReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("experiment: encode bench report: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBenchFile loads a BENCH_*.json report.
func ReadBenchFile(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Version != BenchVersion {
		return nil, fmt.Errorf("%s: unsupported bench version %d (this build reads version %d)",
			path, r.Version, BenchVersion)
	}
	return &r, nil
}

// normalizedCost is the machine-comparable cost of an entry: simulated-
// cycle cost in units of the calibration loop's iteration cost.
func normalizedCost(rep *BenchReport, e BenchEntryResult) float64 {
	if rep.CalibrationNS <= 0 {
		return e.NSPerSimCycle
	}
	return e.NSPerSimCycle / rep.CalibrationNS
}

// Compare checks this (new) report against a baseline, in the spirit of
// benchstat: for every entry present in both, the calibration-normalized
// ns/simulated-cycle and the allocation counts must not regress by more
// than tolerance (e.g. 0.15 for 15%). It returns one human-readable line
// per regression; an empty slice means the gate passes. Allocation
// comparisons ignore sub-1/op noise so a zero-allocation baseline does
// not fail on a stray runtime allocation.
func (r *BenchReport) Compare(baseline *BenchReport, tolerance float64) []string {
	var regressions []string
	for _, e := range r.Entries {
		var base *BenchEntryResult
		for i := range baseline.Entries {
			if baseline.Entries[i].Name == e.Name {
				base = &baseline.Entries[i]
				break
			}
		}
		if base == nil {
			continue // new entry: nothing to regress against
		}
		oldCost := normalizedCost(baseline, *base)
		newCost := normalizedCost(r, e)
		if oldCost > 0 && newCost > oldCost*(1+tolerance) {
			regressions = append(regressions, fmt.Sprintf(
				"%s: ns/simulated-cycle regressed %.1f%% (normalized %.3f -> %.3f; raw %.1f -> %.1f ns)",
				e.Name, 100*(newCost/oldCost-1), oldCost, newCost,
				base.NSPerSimCycle, e.NSPerSimCycle))
		}
		if e.AllocsPerOp > base.AllocsPerOp*(1+tolerance)+1 {
			regressions = append(regressions, fmt.Sprintf(
				"%s: allocs/op regressed %.1f -> %.1f",
				e.Name, base.AllocsPerOp, e.AllocsPerOp))
		}
	}
	return regressions
}
