// Quickstart: simulate a 16-processor Alpha 21364 torus running SPAA (the
// shipping configuration) under the paper's coherence workload, and print
// the network's delivered throughput and average packet latency.
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
	if err := run(os.Stdout, 20000); err != nil {
		log.Fatal(err)
	}
}

// run executes the example at the given router cycle count, writing the
// report to out. The test drives it at reduced fidelity; main uses 20000
// cycles (the BNF sweep runs each point at half that).
func run(out io.Writer, cycles int) error {
	res, err := alpha21364.RunTiming(alpha21364.TimingSetup{
		Width:   4,
		Height:  4,
		Kind:    alpha21364.SPAABase,
		Pattern: alpha21364.Uniform,
		Rate:    0.03,   // new transactions per node per router cycle
		Cycles:  cycles, // router cycles at 1.2 GHz
		Seed:    1,
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(out, "Alpha 21364 4x4 torus, SPAA arbitration, uniform coherence traffic")
	fmt.Fprintf(out, "  delivered throughput: %.3f flits/router/ns (max 2.4)\n", res.Throughput)
	fmt.Fprintf(out, "  average latency:      %.1f ns per packet\n", res.AvgLatencyNS)
	fmt.Fprintf(out, "  packets delivered:    %d (%.2f hops on average)\n", res.Packets, res.MeanHops)
	fmt.Fprintf(out, "  transactions:         %d completed\n", res.Completed)

	// Sweep the load to trace a BNF curve (latency vs delivered
	// throughput), the metric the paper reports in Figure 10. A Spec
	// describes the sweep; a Runner simulates its rates concurrently.
	sweep, err := alpha21364.NewRunner().Run(context.Background(), alpha21364.NewSpec(
		alpha21364.WithName("quickstart BNF"),
		alpha21364.WithTopology(4, 4),
		alpha21364.WithArbiters(alpha21364.SPAABase.String()),
		alpha21364.WithPatterns(alpha21364.Uniform.String()),
		alpha21364.WithRates(0.01, 0.03, 0.05, 0.08),
		alpha21364.WithCycles(cycles/2),
		alpha21364.WithSeed(1),
	))
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "\nBNF curve (load sweep):")
	for _, p := range sweep.Series[0].Points {
		fmt.Fprintf(out, "  rate %.3f -> %.3f flits/router/ns at %.1f ns\n",
			p.Rate, p.Throughput, p.AvgLatencyNS)
	}
	return nil
}
