// Saturation: tree saturation and the Rotary Rule. A 64-processor torus is
// pushed past its saturation point (the high in-flight pressure of the
// paper's Figure 11b scaling study); the base algorithms' delivered
// throughput collapses as trees of blocked packets clog the buffers, while
// the Rotary Rule variants — which let packets already in the network exit
// the "rotary" before new local traffic enters — hold their peak.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"alpha21364"
)

func main() {
	if err := run(os.Stdout, 12000); err != nil {
		log.Fatal(err)
	}
}

// run executes the whole rate x algorithm table at the given router cycle
// count per point, writing it to out. The test drives it at reduced
// fidelity; main uses 12000 cycles.
func run(out io.Writer, cycles int) error {
	fmt.Fprintln(out, "8x8 torus, uniform traffic, 64 outstanding misses per processor")
	fmt.Fprintln(out, "(delivered flits/router/ns as offered load rises)")
	fmt.Fprintln(out)

	// One Spec holds the whole table: a series per arbiter, a point per
	// rate, simulated concurrently by the Runner.
	rates := []float64{0.02, 0.04, 0.08, 0.13}
	res, err := alpha21364.NewRunner().Run(context.Background(), alpha21364.NewSpec(
		alpha21364.WithTopology(8, 8),
		alpha21364.WithArbiters(
			alpha21364.SPAABase.String(), alpha21364.SPAARotary.String(),
			alpha21364.WFABase.String(), alpha21364.WFARotary.String(),
		),
		alpha21364.WithPatterns("random"),
		alpha21364.WithRates(rates...),
		alpha21364.WithMaxOutstanding(64),
		alpha21364.WithCycles(cycles),
		alpha21364.WithSeed(1),
	))
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "%-12s", "rate")
	for _, s := range res.Series {
		fmt.Fprintf(out, "  %-12s", s.Arbiter)
	}
	fmt.Fprintln(out)
	for i, rate := range rates {
		fmt.Fprintf(out, "%-12.3f", rate)
		for _, s := range res.Series {
			fmt.Fprintf(out, "  %-12.4f", s.Points[i].Throughput)
		}
		fmt.Fprintln(out)
	}

	fmt.Fprintln(out)
	fmt.Fprintln(out, "Reading the table: beyond the saturation knee (~0.04), the -base")
	fmt.Fprintln(out, "columns fall while the -rotary columns hold. The 21364 ships the")
	fmt.Fprintln(out, "Rotary Rule as a boot-time option for exactly this regime.")
	return nil
}
