package standalone

import (
	"fmt"
	"testing"

	"alpha21364/internal/core"
	"alpha21364/internal/sim"
)

// BenchmarkModel measures the standalone model end to end: one op is one
// 1,000-cycle RunArbiter of a Figure 8 algorithm at a load below
// saturation and at full load, with every output free (Figure 8) and at
// Figure 9's output occupancies; ns/cycle divides by the simulated
// cycles. Compare commits with `make bench-standalone`.
func BenchmarkModel(b *testing.B) {
	for _, kind := range []core.Kind{
		core.KindMCM, core.KindWFABase, core.KindPIM, core.KindPIM1, core.KindSPAABase,
	} {
		for _, load := range []float64{0.5, 1.0} {
			for _, occ := range []float64{0, 0.25, 0.5, 0.75} {
				b.Run(fmt.Sprintf("%v/load=%g/occupancy=%g", kind, load, occ), func(b *testing.B) {
					cfg := DefaultConfig(load)
					cfg.Occupancy = occ
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						RunArbiter(core.New(kind, sim.NewRNG(cfg.Seed)), cfg)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cfg.Cycles), "ns/cycle")
				})
			}
		}
	}
}
