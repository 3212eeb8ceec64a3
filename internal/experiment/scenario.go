package experiment

// scenario.go builds scenario matrices: the cross product of algorithms
// × destination patterns × arrival processes × injection rates is Spec
// expansion, so a matrix is one Spec that a Runner fans through the same
// parallel job pool as the figure sweeps. Every job's setup is fixed
// before dispatch, so — like the figures — a parallel matrix is
// byte-identical to a serial one.

import (
	"alpha21364/internal/core"
	"alpha21364/internal/traffic"
)

// MatrixSpec lifts the typed matrix axes into a declarative Spec — the
// cross product becomes Spec expansion, executed by a Runner. The base
// setup supplies the torus, run length, seed, and outstanding cap. Series
// come out in matrix order: kinds outermost, then patterns, then
// processes, with one point per rate.
func MatrixSpec(base TimingSetup, kinds []core.Kind,
	patterns []traffic.Pattern, processes []string, rates []float64) Spec {
	names := make([]string, len(patterns))
	for i, p := range patterns {
		names[i] = p.String()
	}
	return Spec{
		Version:  SpecVersion,
		Name:     "matrix",
		Arbiters: kindNames(kinds),
		Check:    base.Check,
		Topology: &TopologySpec{Width: base.Width, Height: base.Height},
		Workload: &WorkloadSpec{
			Patterns:       names,
			Processes:      append([]string(nil), processes...),
			Model:          base.Model,
			Rates:          append([]float64(nil), rates...),
			MaxOutstanding: base.MaxOutstanding,
			RecordTo:       base.RecordTo,
			ReplayFrom:     base.ReplayFrom,
		},
		Timing: &TimingSpec{
			Cycles:         base.Cycles,
			WarmupFraction: base.WarmupFraction,
			Seed:           base.Seed,
			ScalePipeline:  base.ScalePipeline,
			EpochCycles:    base.EpochCycles,
		},
	}
}
