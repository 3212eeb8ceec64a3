package alpha21364_test

import (
	"context"
	"fmt"

	"alpha21364"
)

// ExampleNewArbiter runs the paper's Figure 2 scenario through the naive
// oldest-packet-first strawman and the exhaustive matcher: OPF collapses
// to a single match because every input port's oldest packet wants output
// port 3, while MCM matches one packet to every output port.
func ExampleNewArbiter() {
	dests := [8][3]int{
		{3, 2, 1}, {3, 2, 1}, {3, 2, 1}, {3, 2, 1},
		{3, 6, 1}, {3, 2, 0}, {3, 2, 4}, {3, 2, 5},
	}
	build := func() *alpha21364.Matrix {
		m := alpha21364.NewRouterMatrix()
		key := uint64(1)
		for port, row := range dests {
			for age, d := range row {
				if !m.At(2*port, d).Valid {
					m.Set(2*port, d, int64(age), key, 0)
				}
				key++
			}
		}
		return m
	}
	rng := alpha21364.NewRNG(1)
	opf := alpha21364.NewArbiter(alpha21364.OPF, rng)
	mcm := alpha21364.NewArbiter(alpha21364.MCM, rng)
	fmt.Println("OPF:", len(opf.Arbitrate(build())), "match")
	fmt.Println("MCM:", len(mcm.Arbitrate(build())), "matches")
	// Output:
	// OPF: 1 match
	// MCM: 7 matches
}

// ExampleRunStandalone measures SPAA's matching capability in the
// standalone single-router model at full load, as in Figure 8.
func ExampleRunStandalone() {
	cfg := alpha21364.DefaultStandaloneConfig(1.0)
	res := alpha21364.RunStandalone(alpha21364.SPAABase, cfg)
	fmt.Printf("%s saturates between 4 and 5 matches/cycle: %v\n",
		res.Algorithm, res.MatchesPerCycle > 4 && res.MatchesPerCycle < 5)
	// Output:
	// SPAA-base saturates between 4 and 5 matches/cycle: true
}

// ExampleRunner_Run simulates a 16-processor 21364 torus at a light load
// and confirms the zero-load latency band the paper calibrates in §4.3
// (about 45 ns for the coherence mix in a 4x4 network).
func ExampleRunner_Run() {
	res, err := alpha21364.NewRunner().Run(context.Background(), alpha21364.NewSpec(
		alpha21364.WithTopology(4, 4),
		alpha21364.WithArbiters(alpha21364.SPAABase.String()),
		alpha21364.WithPatterns("random"),
		alpha21364.WithRates(0.002),
		alpha21364.WithCycles(20000),
		alpha21364.WithSeed(1),
	))
	if err != nil {
		panic(err)
	}
	p := res.Series[0].Points[0]
	fmt.Printf("average latency within the zero-load band: %v\n",
		p.AvgLatencyNS > 40 && p.AvgLatencyNS < 60)
	// Output:
	// average latency within the zero-load band: true
}
