package experiment

import "testing"

// TestSaturationOscillation reproduces the paper's §3.4 observation that a
// saturated network "produces a cyclic pattern of network link utilization
// with extremely high levels of uniform random input traffic": beyond
// saturation the delivered throughput oscillates as backpressure waves
// throttle and release the injectors, while below saturation delivery is
// steady.
func TestSaturationOscillation(t *testing.T) {
	run := func(rate float64, outstanding int) float64 {
		return runPoint(t, NewSpec(
			WithTopology(8, 8), WithArbiters("SPAA-base"), WithPatterns("random"),
			WithRates(rate), WithMaxOutstanding(outstanding),
			WithCycles(15000), WithSeed(1), WithEpochCycles(1500),
		)).ThroughputCoV
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
