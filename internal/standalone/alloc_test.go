package standalone

import (
	"testing"

	"alpha21364/internal/core"
	"alpha21364/internal/ports"
	"alpha21364/internal/sim"
)

// TestModelCycleAllocatesNothing pins one warmed-up saturated model cycle
// (arrivals, the cycle's matrix, Arbitrate and the drain) at zero
// allocations: cycles with every output free, which arbitrate on the
// live matrix; cycles with busy outputs, which build over it; and the two
// alternating, where every free cycle rebuilds the stale live matrix.
func TestModelCycleAllocatesNothing(t *testing.T) {
	busy := ports.OutMask(0).With(0).With(5)
	for _, tc := range []struct {
		name string
		busy func(cycle int64) ports.OutMask
	}{
		{"free", func(int64) ports.OutMask { return 0 }},
		{"busy", func(int64) ports.OutMask { return busy }},
		{"alternating", func(cycle int64) ports.OutMask { return busy * ports.OutMask(cycle%2) }},
	} {
		for kind := core.Kind(0); kind < core.NumKinds; kind++ {
			t.Run(tc.name+"/"+kind.String(), func(t *testing.T) {
				m := newModel(DefaultConfig(1.0))
				arb := core.New(kind, sim.NewRNG(1))
				cycle := int64(0)
				step := func() {
					m.arrive(cycle)
					m.drain(arb.Arbitrate(m.matrixFor(tc.busy(cycle))))
					cycle++
				}
				for i := 0; i < 500; i++ {
					step()
				}
				if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
					t.Fatalf("%.1f allocations per model cycle, want 0", allocs)
				}
			})
		}
	}
}
