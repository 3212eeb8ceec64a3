package main

import "alpha21364/internal/experiment"

// benchWorkload is one benchmark input: a fixed simulated job, expressed as an
// experiment.Spec. README.md explains which layers each workload loads and
// which it bypasses.
type benchWorkload struct {
	name string
	why  string
	// cycles is the default run length: router cycles per torus point, or
	// model iterations per standalone point. Tests pass shorter lengths.
	cycles int
	spec   func(seed uint64, cycles int) experiment.Spec
}

var workloads = []benchWorkload{
	{
		name:   "torus4-sweep",
		why:    "a Figure-10-shaped 4x4 BNF sweep: PIM1, WFA-rotary and SPAA-rotary at light, knee and saturated load, loading router, links, generator and Runner",
		cycles: 4000,
		spec: func(seed uint64, cycles int) experiment.Spec {
			return experiment.NewSpec(
				experiment.WithName("torus4-sweep"),
				experiment.WithTopology(4, 4),
				experiment.WithArbiters("PIM1", "WFA-rotary", "SPAA-rotary"),
				experiment.WithRates(0.01, 0.03, 0.09),
				experiment.WithCycles(cycles),
				experiment.WithSeed(seed),
			)
		},
	},
	{
		name:   "standalone-fig8",
		why:    "the Figure 8 single-router matching model: only the arbitration kernels and matrix build work; engine, router and network are bypassed",
		cycles: 4000,
		spec: func(seed uint64, cycles int) experiment.Spec {
			return experiment.NewSpec(
				experiment.WithName("standalone-fig8"),
				experiment.WithArbiters("MCM", "WFA-base", "PIM", "PIM1", "SPAA-base"),
				experiment.WithStandalone(experiment.StandaloneSpec{
					Cycles: cycles,
					Seed:   seed,
					Axis:   experiment.AxisLoad,
					Values: []float64{0.5, 1.0},
				}),
			)
		},
	},
}

func lookupWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}
