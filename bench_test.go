package alpha21364

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"alpha21364/internal/core"
	"alpha21364/internal/experiment"
	"alpha21364/internal/sim"
	"alpha21364/internal/standalone"
)

// benchOpts keeps figure benchmarks short enough for `go test -bench=.`
// while preserving each figure's qualitative shape. Full-fidelity runs are
// produced by `go run ./cmd/sweep` (75,000 cycles, full sweeps).
var benchOpts = experiment.Options{Quick: true, CyclesOverride: 4000, MaxRatePoints: 3, Seed: 1}

// printOnce emits each figure's table a single time per test binary run,
// so the benchmark harness reproduces the paper's rows without spamming
// every b.N iteration.
var printed sync.Map

func printOnce(key string, render func() string) {
	if _, loaded := printed.LoadOrStore(key, true); !loaded {
		fmt.Println(render())
	}
}

// benchFigure runs one panel of a canned figure Spec per iteration
// through a Runner. workers 1 measures the serial sweep path; workers 0
// (one per CPU) measures the worker pool, whose tables are byte-identical
// to the serial ones — only the wall-clock differs.
func benchFigure(b *testing.B, workers int, figure string, panel int) {
	b.Helper()
	specs, err := experiment.FigureSpecs(figure, benchOpts)
	if err != nil {
		b.Fatal(err)
	}
	sp := specs[panel]
	runner := experiment.NewRunner(experiment.WithWorkers(workers))
	for i := 0; i < b.N; i++ {
		res, err := runner.Run(context.Background(), sp)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(sp.Name, func() string { return res.Table().Format() })
	}
}

// BenchmarkFigure8 regenerates the standalone matching-capability sweep
// (matches/cycle vs load for MCM, WFA, PIM, PIM1, SPAA).
func BenchmarkFigure8(b *testing.B) { benchFigure(b, 1, "8", 0) }

// BenchmarkFigure9 regenerates the output-port occupancy sweep.
func BenchmarkFigure9(b *testing.B) { benchFigure(b, 1, "9", 0) }

func BenchmarkFigure10_4x4Random(b *testing.B)         { benchFigure(b, 1, "10", 0) }
func BenchmarkFigure10_8x8Random(b *testing.B)         { benchFigure(b, 1, "10", 1) }
func BenchmarkFigure10_8x8BitReversal(b *testing.B)    { benchFigure(b, 1, "10", 2) }
func BenchmarkFigure10_8x8PerfectShuffle(b *testing.B) { benchFigure(b, 1, "10", 3) }

// BenchmarkFigure10_Saturation regenerates the saturation companion panel
// (64 outstanding misses) in which the Rotary Rule's post-saturation
// behavior is visible; see EXPERIMENTS.md.
func BenchmarkFigure10_Saturation(b *testing.B) { benchFigure(b, 1, "10s", 0) }

func BenchmarkFigure11a(b *testing.B) { benchFigure(b, 1, "11a", 0) }
func BenchmarkFigure11b(b *testing.B) { benchFigure(b, 1, "11b", 0) }
func BenchmarkFigure11c(b *testing.B) { benchFigure(b, 1, "11c", 0) }

// ---- parallel sweep-runner variants (one worker per CPU) ----

func BenchmarkFigure8Parallel(b *testing.B)             { benchFigure(b, 0, "8", 0) }
func BenchmarkFigure10_8x8RandomParallel(b *testing.B)  { benchFigure(b, 0, "10", 1) }
func BenchmarkFigure10_SaturationParallel(b *testing.B) { benchFigure(b, 0, "10s", 0) }
func BenchmarkFigure11cParallel(b *testing.B)           { benchFigure(b, 0, "11c", 0) }

// BenchmarkCollectDatasetParallel runs the entire evaluation pipeline —
// every figure Spec, each fanned across one worker per CPU — the
// workload behind `sweep -verify`.
func BenchmarkCollectDatasetParallel(b *testing.B) {
	runner := experiment.NewRunner()
	exec := func(sp experiment.Spec) (*experiment.Result, error) {
		return runner.Run(context.Background(), sp)
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.CollectDataset(benchOpts, exec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRotary compares base and rotary variants beyond
// saturation (the §5.2 throughput-retention claim).
func BenchmarkAblationRotary(b *testing.B) {
	sp := experiment.NewSpec(
		experiment.WithTopology(8, 8),
		experiment.WithArbiters("SPAA-base", "SPAA-rotary", "WFA-base", "WFA-rotary"),
		experiment.WithPatterns("random"),
		experiment.WithRates(0.09),
		experiment.WithMaxOutstanding(64),
		experiment.WithCycles(benchOpts.TimingCycles()),
		experiment.WithSeed(1),
	)
	runner := experiment.NewRunner(experiment.WithWorkers(1))
	for i := 0; i < b.N; i++ {
		res, err := runner.Run(context.Background(), sp)
		if err != nil {
			b.Fatal(err)
		}
		rows := make([][]string, 0, len(res.Series))
		for _, s := range res.Series {
			pt := s.Points[0]
			rows = append(rows, []string{s.Arbiter,
				fmt.Sprintf("%.4f", pt.Throughput),
				fmt.Sprintf("%.1f", pt.AvgLatencyNS),
				fmt.Sprintf("%d", pt.DrainEntries)})
		}
		printOnce("ablation-rotary", func() string {
			return experiment.Table{
				Title:   "Ablation: Rotary Rule beyond saturation (8x8 random, 64 outstanding)",
				Columns: []string{"algorithm", "tput", "lat(ns)", "drains"},
				Rows:    rows,
			}.Format()
		})
	}
}

// BenchmarkAblationPIMIterations sweeps PIM's iteration count in the
// standalone model (§3.1: PIM converges within log2 N = 4 iterations on
// the 21364's 16 arbiters; PIM1's matching is significantly worse).
func BenchmarkAblationPIMIterations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := make([][]string, 0, 4)
		cfg := DefaultStandaloneConfig(1.0)
		cfg.Cycles = 400
		for _, iters := range []int{1, 2, 4, 8} {
			total := 0.0
			const trials = 3
			for trial := 0; trial < trials; trial++ {
				c := cfg
				c.Seed = uint64(trial + 1)
				arb := core.NewPIM(iters, sim.NewRNG(c.Seed))
				total += standalone.RunArbiter(arb, c).MatchesPerCycle
			}
			rows = append(rows, []string{fmt.Sprintf("%d", iters), fmt.Sprintf("%.2f", total/trials)})
		}
		printOnce("ablation-pim-iters", func() string {
			return experiment.Table{
				Title:   "Ablation: PIM iterations vs matches/cycle (standalone, saturation load)",
				Columns: []string{"iterations", "matches/cycle"},
				Rows:    rows,
			}.Format()
		})
	}
}

// BenchmarkAblationPickerWindow sweeps the standalone model's entry-table
// picker depth: with a shallow window, blocked heads hide eligible packets
// and every algorithm's matching degrades.
func BenchmarkAblationPickerWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := make([][]string, 0, 4)
		for _, window := range []int{1, 4, 16, 316} {
			cfg := DefaultStandaloneConfig(1.0)
			cfg.Cycles = 400
			cfg.Window = window
			mcm := RunStandalone(MCM, cfg).MatchesPerCycle
			spaa := RunStandalone(SPAABase, cfg).MatchesPerCycle
			rows = append(rows, []string{fmt.Sprintf("%d", window),
				fmt.Sprintf("%.2f", mcm), fmt.Sprintf("%.2f", spaa)})
		}
		printOnce("ablation-window", func() string {
			return experiment.Table{
				Title:   "Ablation: arbitration picker window (standalone, saturation load)",
				Columns: []string{"window (pkts)", "MCM", "SPAA"},
				Rows:    rows,
			}.Format()
		})
	}
}

// ---- microbenchmarks of the arbitration algorithms themselves ----

func benchArbiter(b *testing.B, kind core.Kind) {
	rng := sim.NewRNG(1)
	arb := core.New(kind, rng.Split())
	m := core.NewRouterMatrix()
	key := uint64(1)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			if rng.Bernoulli(0.5) {
				m.Set(r, c, int64(rng.Intn(1000)), key, 0)
				key++
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arb.Arbitrate(m)
	}
}

func BenchmarkArbitrateSPAA(b *testing.B) { benchArbiter(b, core.KindSPAABase) }
func BenchmarkArbitrateWFA(b *testing.B)  { benchArbiter(b, core.KindWFABase) }
func BenchmarkArbitratePIM1(b *testing.B) { benchArbiter(b, core.KindPIM1) }
func BenchmarkArbitratePIM(b *testing.B)  { benchArbiter(b, core.KindPIM) }
func BenchmarkArbitrateMCM(b *testing.B)  { benchArbiter(b, core.KindMCM) }

// BenchmarkTorusPoint times the nine points of simbench's torus4-sweep
// workload one by one: PIM1, WFA-rotary and SPAA-rotary at light (0.01),
// knee (0.03) and saturated (0.09) load on a 4x4 torus for 4,000 cycles
// at seed 1. One op is one point, run as a one-point Spec through a
// serial Runner, and ns/node-cycle divides its time — the Runner's
// per-point overhead included — by the 16 routers x 4,000 cycles it
// simulates. Compare commits with `make bench-router`.
func BenchmarkTorusPoint(b *testing.B) {
	const width, height, cycles = 4, 4, 4000
	runner := experiment.NewRunner(experiment.WithWorkers(1))
	for _, kind := range []core.Kind{core.KindPIM1, core.KindWFARotary, core.KindSPAARotary} {
		for _, rate := range []float64{0.01, 0.03, 0.09} {
			b.Run(fmt.Sprintf("%v/%g", kind, rate), func(b *testing.B) {
				sp := experiment.NewSpec(
					experiment.WithTopology(width, height),
					experiment.WithArbiters(kind.String()),
					experiment.WithPatterns("random"),
					experiment.WithRates(rate),
					experiment.WithCycles(cycles),
					experiment.WithSeed(1),
				)
				for b.Loop() {
					if _, err := runner.Run(context.Background(), sp); err != nil {
						b.Fatal(err)
					}
				}
				nodeCycles := float64(b.N) * width * height * cycles
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/nodeCycles, "ns/node-cycle")
			})
		}
	}
}
