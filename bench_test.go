package alpha21364

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"alpha21364/internal/core"
	"alpha21364/internal/experiment"
	"alpha21364/internal/router"
	"alpha21364/internal/sim"
	"alpha21364/internal/standalone"
	"alpha21364/internal/traffic"
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

// BenchmarkAblationPipelineDepth measures the paper's footnote 1: each
// cycle added to the arbitration pipeline costs roughly 5% of throughput
// under heavy load. It sweeps SPAA with 3..6 arbitration cycles.
func BenchmarkAblationPipelineDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := make([][]string, 0, 4)
		var baseTput float64
		for extra := 0; extra <= 3; extra++ {
			res := runCustomRouter(b, func(cfg *router.Config) {
				cfg.ArbCycles += extra
			}, 0.05)
			if extra == 0 {
				baseTput = res.Throughput
			}
			rows = append(rows, []string{
				fmt.Sprintf("%d", 3+extra),
				fmt.Sprintf("%.4f", res.Throughput),
				fmt.Sprintf("%.1f%%", 100*(1-res.Throughput/baseTput)),
				fmt.Sprintf("%.1f", res.AvgLatencyNS),
			})
		}
		printOnce("ablation-depth", func() string {
			return experiment.Table{
				Title:   "Ablation: SPAA arbitration pipeline depth (8x8 random, heavy load)",
				Columns: []string{"arb cycles", "tput", "loss vs 3", "lat(ns)"},
				Rows:    rows,
			}.Format()
		})
	}
}

// BenchmarkAblationInitiationInterval isolates pipelining (§5.2's closing
// experiment): a hypothetical 3-cycle WFA that still restarts only every 3
// cycles, against SPAA's every-cycle restart.
func BenchmarkAblationInitiationInterval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spaa := runCustomRouter(b, nil, 0.05)
		wfa3 := runCustomRouterKind(b, core.KindWFABase, func(cfg *router.Config) {
			cfg.ArbCycles = 3 // same latency as SPAA; II stays 3
		}, 0.05)
		printOnce("ablation-ii", func() string {
			return experiment.Table{
				Title:   "Ablation: initiation interval (8x8 random; hypothetical 3-cycle WFA vs SPAA)",
				Columns: []string{"algorithm", "II", "tput", "lat(ns)"},
				Rows: [][]string{
					{"SPAA-base", "1", fmt.Sprintf("%.4f", spaa.Throughput), fmt.Sprintf("%.1f", spaa.AvgLatencyNS)},
					{"WFA-base (3-cycle)", "3", fmt.Sprintf("%.4f", wfa3.Throughput), fmt.Sprintf("%.1f", wfa3.AvgLatencyNS)},
				},
			}.Format()
		})
	}
}

// BenchmarkAblationRotary compares base and rotary variants beyond
// saturation (the §5.2 throughput-retention claim).
func BenchmarkAblationRotary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := make([][]string, 0, 4)
		for _, k := range []core.Kind{core.KindSPAABase, core.KindSPAARotary, core.KindWFABase, core.KindWFARotary} {
			res, err := experiment.RunTiming(experiment.TimingSetup{
				Width: 8, Height: 8, Kind: k, Pattern: traffic.Uniform,
				Rate: 0.09, MaxOutstanding: 64, Cycles: benchOpts.TimingCycles(), Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, []string{k.String(),
				fmt.Sprintf("%.4f", res.Throughput),
				fmt.Sprintf("%.1f", res.AvgLatencyNS),
				fmt.Sprintf("%d", res.DrainEntries)})
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

// BenchmarkAblationGrantPolicy explores §3's output-arbiter design space:
// SPAA with least-recently-selected (shipping), round-robin, random, and a
// fixed priority chain.
func BenchmarkAblationGrantPolicy(b *testing.B) {
	policies := []struct {
		name    string
		factory func(rows, cols int) core.SelectPolicy
	}{
		{"lrs (21364)", nil},
		{"round-robin", func(r, c int) core.SelectPolicy { return core.NewRoundRobinPolicy(r, c) }},
		{"random", func(r, c int) core.SelectPolicy { return core.NewRandomPolicy(sim.NewRNG(7)) }},
		{"priority-chain", func(r, c int) core.SelectPolicy { return core.NewPriorityChainPolicy() }},
	}
	for i := 0; i < b.N; i++ {
		rows := make([][]string, 0, len(policies))
		for _, pol := range policies {
			pol := pol
			res := runCustomRouter(b, func(cfg *router.Config) {
				if pol.factory != nil {
					cfg.GrantPolicyFactory = pol.factory
				}
			}, 0.05)
			rows = append(rows, []string{pol.name,
				fmt.Sprintf("%.4f", res.Throughput),
				fmt.Sprintf("%.1f", res.AvgLatencyNS)})
		}
		printOnce("ablation-policy", func() string {
			return experiment.Table{
				Title:   "Ablation: SPAA output-arbiter grant policy (8x8 random, heavy load)",
				Columns: []string{"policy", "tput", "lat(ns)"},
				Rows:    rows,
			}.Format()
		})
	}
}

func runCustomRouter(b *testing.B, mutate func(*router.Config), rate float64) experiment.TimingResult {
	return runCustomRouterKind(b, core.KindSPAABase, mutate, rate)
}

// runCustomRouterKind runs an 8x8 random-traffic simulation with a mutated
// router configuration, bypassing the standard per-kind defaults.
func runCustomRouterKind(b *testing.B, kind core.Kind, mutate func(*router.Config), rate float64) experiment.TimingResult {
	b.Helper()
	res, err := experiment.RunTimingWithRouter(experiment.TimingSetup{
		Width: 8, Height: 8, Kind: kind, Pattern: traffic.Uniform,
		Rate: rate, Cycles: benchOpts.TimingCycles(), Seed: 1,
	}, mutate)
	if err != nil {
		b.Fatal(err)
	}
	return res
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

// BenchmarkRouterCycle measures the cost of simulating one router cycle of
// a loaded 8x8 network — the simulator's core inner loop.
func BenchmarkRouterCycle(b *testing.B) {
	res, err := experiment.RunTiming(experiment.TimingSetup{
		Width: 8, Height: 8, Kind: SPAABase, Pattern: Uniform,
		Rate: 0.03, Cycles: b.N/64 + 1000, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	_ = res
}
