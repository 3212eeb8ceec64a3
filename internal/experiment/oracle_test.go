package experiment

// oracle_test.go gates the invariant-oracle integration: checking never
// changes simulation results, and the full canned figure matrix runs
// green with every invariant enabled — the acceptance bar that makes the
// golden fingerprints trustworthy rather than merely stable.

import (
	"context"
	"encoding/json"
	"testing"
)

// seriesBytes serializes just the measured series — the simulation
// output, as opposed to the spec echo.
func seriesBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	data, err := json.Marshal(res.Series)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckedRunMatchesUnchecked: enabling the oracle must not perturb a
// single byte of simulation output — the sweeps only read state and the
// hooks only observe.
func TestCheckedRunMatchesUnchecked(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"timing", fingerprintTimingSpec()},
		{"standalone", fingerprintStandaloneSpec()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain, err := NewRunner(WithWorkers(2)).Run(context.Background(), tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			sp := tc.spec
			sp.Check = true
			checked, err := NewRunner(WithWorkers(2)).Run(context.Background(), sp)
			if err != nil {
				t.Fatalf("invariant violation on a healthy run: %v", err)
			}
			if a, b := seriesBytes(t, plain), seriesBytes(t, checked); string(a) != string(b) {
				t.Errorf("checked run diverged from unchecked:\n%s\nvs\n%s", a, b)
			}
		})
	}
}

// TestFigureMatrixGreenWithCheck runs the full canned figure matrix —
// every panel of Figures 8 through 11c — with all invariants enabled, at
// reduced fidelity. Any conservation, bounds, grant-legality, or
// watchdog violation anywhere in the matrix fails the test.
func TestFigureMatrixGreenWithCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure matrix is too slow for -short")
	}
	specs, err := FigureSpecs("all", true)
	if err != nil {
		t.Fatal(err)
	}
	runner := NewRunner()
	for _, sp := range specs {
		shrink(1000, 2)(&sp)
		WithCheck()(&sp)
		if _, err := runner.Run(context.Background(), sp); err != nil {
			t.Errorf("%s: %v", sp.Name, err)
		}
	}
}

// TestRateMonotonicitySmoke: below saturation, delivered throughput must
// be non-decreasing in the offered rate. A violation would mean the
// closed loop is throttling where it should not.
func TestRateMonotonicitySmoke(t *testing.T) {
	res, err := NewRunner().Run(context.Background(), NewSpec(
		WithName("monotonicity"),
		WithTopology(4, 4),
		WithArbiters("SPAA-rotary"),
		WithRates(0.005, 0.015, 0.03, 0.05),
		WithCycles(4000),
		WithSeed(2),
	))
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Series[0].Points
	for i := 1; i < len(pts); i++ {
		// Allow a sliver of stochastic noise; genuine non-monotonicity
		// below saturation is far larger than 2%.
		if pts[i].Throughput < pts[i-1].Throughput*0.98 {
			t.Errorf("throughput fell from %.4f (rate %g) to %.4f (rate %g)",
				pts[i-1].Throughput, pts[i-1].Rate, pts[i].Throughput, pts[i].Rate)
		}
	}
}
