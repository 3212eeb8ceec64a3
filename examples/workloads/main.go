// Workloads: composing the pluggable workload suite. A workload is three
// orthogonal choices — a destination pattern (where packets go), an
// arrival process (when demands fire), and a transaction model (what a
// demand injects). This example sweeps one arbiter across the pattern ×
// process grid, then records a bursty-hotspot run to a trace file and
// replays it under a different arbiter: the replay re-injects the
// identical packet sequence, so the latency difference is purely the
// arbiter's doing.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"alpha21364"
)

func main() {
	if err := run(os.Stdout, 8000); err != nil {
		log.Fatal(err)
	}
}

// run executes the whole example at the given per-simulation cycle
// count, writing the tables to out. The test drives it at reduced
// fidelity; main uses 8000 cycles.
func run(out io.Writer, cycles int) error {
	fmt.Fprintln(out, "4x4 torus, SPAA-rotary: avg latency (ns) per pattern x process")
	fmt.Fprintln(out)

	// One Spec holds the whole grid: a series per pattern × process, in
	// pattern-major order.
	patterns := []string{"random", "transpose", "tornado", "neighbor", "hotspot"}
	processes := alpha21364.ProcessNames()
	runner := alpha21364.NewRunner()
	ctx := context.Background()
	grid, err := runner.Run(ctx, alpha21364.NewSpec(
		alpha21364.WithTopology(4, 4),
		alpha21364.WithArbiters(alpha21364.SPAARotary.String()),
		alpha21364.WithPatterns(patterns...),
		alpha21364.WithProcesses(processes...),
		alpha21364.WithRates(0.03),
		alpha21364.WithCycles(cycles),
		alpha21364.WithSeed(1),
	))
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "%-16s", "pattern")
	for _, proc := range processes {
		fmt.Fprintf(out, "  %-14s", proc)
	}
	fmt.Fprintln(out)
	for i, pat := range patterns {
		fmt.Fprintf(out, "%-16s", pat)
		for j := range processes {
			fmt.Fprintf(out, "  %-14.1f", grid.Series[i*len(processes)+j].Points[0].AvgLatencyNS)
		}
		fmt.Fprintln(out)
	}

	// Record a bursty hotspot run, then replay the identical packet
	// sequence under a slower arbiter.
	dir, err := os.MkdirTemp("", "workloads")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	tracePath := filepath.Join(dir, "bursty-hotspot.trace")

	recorded, err := runner.Run(ctx, alpha21364.NewSpec(
		alpha21364.WithTopology(4, 4),
		alpha21364.WithArbiters(alpha21364.SPAARotary.String()),
		alpha21364.WithPatterns("hotspot"),
		alpha21364.WithProcesses("onoff"),
		alpha21364.WithRates(0.03),
		alpha21364.WithCycles(cycles),
		alpha21364.WithSeed(1),
		alpha21364.WithRecord(tracePath),
	))
	if err != nil {
		return err
	}
	trace, err := alpha21364.ReadTraceFile(tracePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nrecorded %d injections of a bursty hotspot run (SPAA-rotary: %.1f ns avg)\n",
		len(trace.Events), recorded.Series[0].Points[0].AvgLatencyNS)

	replayed, err := runner.Run(ctx, alpha21364.NewSpec(
		alpha21364.WithTopology(4, 4),
		alpha21364.WithArbiters(alpha21364.PIM1.String()),
		alpha21364.WithCycles(cycles),
		alpha21364.WithSeed(1),
		alpha21364.WithReplay(tracePath),
	))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "replayed the same packet sequence under PIM1:      %.1f ns avg\n",
		replayed.Series[0].Points[0].AvgLatencyNS)
	fmt.Fprintln(out, "\nSame packets, same ticks — only the arbiter changed.")
	return nil
}
