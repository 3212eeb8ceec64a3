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

	patterns := []string{"random", "transpose", "tornado", "neighbor", "hotspot"}
	processes := alpha21364.ProcessNames()

	fmt.Fprintf(out, "%-16s", "pattern")
	for _, proc := range processes {
		fmt.Fprintf(out, "  %-14s", proc)
	}
	fmt.Fprintln(out)
	for _, pat := range patterns {
		fmt.Fprintf(out, "%-16s", pat)
		for _, proc := range processes {
			res, err := alpha21364.RunTiming(alpha21364.TimingSetup{
				Width: 4, Height: 4, Kind: alpha21364.SPAARotary, Pattern: pat,
				Process: proc, Rate: 0.03, Cycles: cycles, Seed: 1,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "  %-14.1f", res.AvgLatencyNS)
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

	setup := alpha21364.TimingSetup{
		Width: 4, Height: 4, Kind: alpha21364.SPAARotary, Pattern: "hotspot",
		Process: "onoff", Rate: 0.03, Cycles: cycles, Seed: 1,
		RecordTo: tracePath,
	}
	recorded, err := alpha21364.RunTiming(setup)
	if err != nil {
		return err
	}
	trace, err := alpha21364.ReadTraceFile(tracePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nrecorded %d injections of a bursty hotspot run (SPAA-rotary: %.1f ns avg)\n",
		len(trace.Events), recorded.AvgLatencyNS)

	replayed, err := alpha21364.RunTiming(alpha21364.TimingSetup{
		Width: 4, Height: 4, Kind: alpha21364.PIM1, Cycles: cycles, Seed: 1,
		ReplayFrom: tracePath,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "replayed the same packet sequence under PIM1:      %.1f ns avg\n",
		replayed.AvgLatencyNS)
	fmt.Fprintln(out, "\nSame packets, same ticks — only the arbiter changed.")
	return nil
}
