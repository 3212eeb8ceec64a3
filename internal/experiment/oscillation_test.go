package experiment

import (
	"testing"

	"alpha21364/internal/core"
)

// TestSaturationOscillation reproduces the paper's §3.4 observation that a
// saturated network "produces a cyclic pattern of network link utilization
// with extremely high levels of uniform random input traffic": beyond
// saturation the delivered throughput oscillates as backpressure waves
// throttle and release the injectors, while below saturation delivery is
// steady.
func TestSaturationOscillation(t *testing.T) {
	run := func(rate float64, outstanding int) float64 {
		res, err := RunTiming(TimingSetup{
			Width: 8, Height: 8, Kind: core.KindSPAABase, Pattern: "random",
			Rate: rate, MaxOutstanding: outstanding,
			Cycles: 15000, Seed: 1, EpochCycles: 1500,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.ThroughputCoV
	}
	light := run(0.01, 16)
	saturated := run(0.09, 64)
	if light > 0.3 {
		t.Errorf("light-load delivery oscillates too much: CoV = %.3f", light)
	}
	if saturated < 1.8*light || saturated < 0.3 {
		t.Errorf("saturated CoV %.3f vs light %.3f: expected strong oscillation", saturated, light)
	}
}
