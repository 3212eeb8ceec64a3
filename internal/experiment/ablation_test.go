package experiment

// ablation_test.go holds the ablation studies that need a router no Spec
// describes: each expands a one-point Spec and edits its job's router
// configuration before runTiming. The ablations a Spec or the standalone
// model can express live with the figure benchmarks at the repository
// root.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"alpha21364/internal/core"
	"alpha21364/internal/router"
	"alpha21364/internal/sim"
)

// printedAblations makes each ablation print its table once per test
// binary run, however many iterations the harness asks for.
var printedAblations sync.Map

func printAblation(key string, tb Table) {
	if _, loaded := printedAblations.LoadOrStore(key, true); !loaded {
		fmt.Println(tb.Format())
	}
}

// runAblation runs an 8x8 random-traffic point of kind at rate for 4,000
// cycles at seed 1, with edit applied to the job's router configuration.
func runAblation(b *testing.B, kind string, rate float64, edit func(*router.Config)) ResultPoint {
	b.Helper()
	tr := pointRun(b, NewSpec(
		WithTopology(8, 8), WithArbiters(kind), WithPatterns("random"),
		WithRates(rate), WithCycles(4000), WithSeed(1),
	))
	if edit != nil {
		edit(&tr.router)
	}
	pt, err := runTiming(context.Background(), tr)
	if err != nil {
		b.Fatal(err)
	}
	return pt
}

// BenchmarkAblationPipelineDepth measures the paper's footnote 1: each
// cycle added to the arbitration pipeline costs roughly 5% of throughput
// under heavy load. It sweeps SPAA with 3..6 arbitration cycles.
func BenchmarkAblationPipelineDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := make([][]string, 0, 4)
		var baseTput float64
		for extra := 0; extra <= 3; extra++ {
			pt := runAblation(b, "SPAA-base", 0.05, func(cfg *router.Config) {
				cfg.ArbCycles += extra
			})
			if extra == 0 {
				baseTput = pt.Throughput
			}
			rows = append(rows, []string{
				fmt.Sprintf("%d", 3+extra),
				fmt.Sprintf("%.4f", pt.Throughput),
				fmt.Sprintf("%.1f%%", 100*(1-pt.Throughput/baseTput)),
				fmt.Sprintf("%.1f", pt.AvgLatencyNS),
			})
		}
		printAblation("depth", Table{
			Title:   "Ablation: SPAA arbitration pipeline depth (8x8 random, heavy load)",
			Columns: []string{"arb cycles", "tput", "loss vs 3", "lat(ns)"},
			Rows:    rows,
		})
	}
}

// BenchmarkAblationInitiationInterval isolates pipelining (§5.2's closing
// experiment): a hypothetical 3-cycle WFA that still restarts only every 3
// cycles, against SPAA's every-cycle restart.
func BenchmarkAblationInitiationInterval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spaa := runAblation(b, "SPAA-base", 0.05, nil)
		wfa3 := runAblation(b, "WFA-base", 0.05, func(cfg *router.Config) {
			cfg.ArbCycles = 3 // same latency as SPAA; II stays 3
		})
		printAblation("ii", Table{
			Title:   "Ablation: initiation interval (8x8 random; hypothetical 3-cycle WFA vs SPAA)",
			Columns: []string{"algorithm", "II", "tput", "lat(ns)"},
			Rows: [][]string{
				{"SPAA-base", "1", fmt.Sprintf("%.4f", spaa.Throughput), fmt.Sprintf("%.1f", spaa.AvgLatencyNS)},
				{"WFA-base (3-cycle)", "3", fmt.Sprintf("%.4f", wfa3.Throughput), fmt.Sprintf("%.1f", wfa3.AvgLatencyNS)},
			},
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
			pt := runAblation(b, "SPAA-base", 0.05, func(cfg *router.Config) {
				cfg.GrantPolicyFactory = pol.factory
			})
			rows = append(rows, []string{pol.name,
				fmt.Sprintf("%.4f", pt.Throughput),
				fmt.Sprintf("%.1f", pt.AvgLatencyNS)})
		}
		printAblation("policy", Table{
			Title:   "Ablation: SPAA output-arbiter grant policy (8x8 random, heavy load)",
			Columns: []string{"policy", "tput", "lat(ns)"},
			Rows:    rows,
		})
	}
}
