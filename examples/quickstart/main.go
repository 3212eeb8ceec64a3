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
	// A Spec describes the simulation; a Runner executes it. This one has
	// a single point: one arbiter at one rate.
	runner := alpha21364.NewRunner()
	res, err := runner.Run(context.Background(), alpha21364.NewSpec(
		alpha21364.WithTopology(4, 4),
		alpha21364.WithArbiters(alpha21364.SPAABase.String()),
		alpha21364.WithPatterns("random"),
		alpha21364.WithRates(0.03),    // new transactions per node per router cycle
		alpha21364.WithCycles(cycles), // router cycles at 1.2 GHz
		alpha21364.WithSeed(1),
	))
	if err != nil {
		return err
	}
	p := res.Series[0].Points[0]

	fmt.Fprintln(out, "Alpha 21364 4x4 torus, SPAA arbitration, uniform coherence traffic")
	fmt.Fprintf(out, "  delivered throughput: %.3f flits/router/ns (max 2.4)\n", p.Throughput)
	fmt.Fprintf(out, "  average latency:      %.1f ns per packet\n", p.AvgLatencyNS)
	fmt.Fprintf(out, "  packets delivered:    %d (%.2f hops on average)\n", p.Packets, p.MeanHops)
	fmt.Fprintf(out, "  transactions:         %d completed\n", p.Completed)

	// Sweep the load to trace a BNF curve (latency vs delivered
	// throughput), the metric the paper reports in Figure 10: with several
	// rates, the Runner simulates them concurrently.
	sweep, err := runner.Run(context.Background(), alpha21364.NewSpec(
		alpha21364.WithName("quickstart BNF"),
		alpha21364.WithTopology(4, 4),
		alpha21364.WithArbiters(alpha21364.SPAABase.String()),
		alpha21364.WithPatterns("random"),
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
