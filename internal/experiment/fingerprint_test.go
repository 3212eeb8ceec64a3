package experiment

// fingerprint_test.go is the golden-determinism gate for hot-path
// refactors: it runs a canned arbiter × pattern × rate matrix (plus a
// standalone sweep) through the Runner and pins the SHA-256 of the
// serialized Result. Any change to the engine's dispatch order, the
// packet/flit pooling, the router's queue layout, or the arbiter inner
// loops that alters a single byte of simulation output fails here.
//
// The hashes were captured before the tick-wheel/arena refactor of the
// zero-allocation PR and verified byte-identical after it. They were
// re-captured once, in the same PR, when the latency percentiles became
// exact (stats' fine-bucket histogram) — a deliberate, documented value
// change, not a determinism break.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"alpha21364/internal/obs"
)

// goldenTimingFingerprint pins the timing-model matrix: 3 arbiters x
// 2 patterns x 2 rates on a 4x4 torus. The seed-code hash was
// 034eebd5943da540b7541ac134ec265083308a73461577bb676131380236d9b0;
// the tick-wheel/arena/ring refactor reproduced it byte for byte, and
// the hash below reflects the one deliberate value change that followed
// (latency_p50/p95/p99_ns became exact instead of power-of-two upper
// bounds).
const goldenTimingFingerprint = "adeb6388ec823a562cda1ae463d42f3576f26e92f39a7a08dac70cb6c5e5a195"

// goldenStandaloneFingerprint pins the standalone matching-model sweep.
const goldenStandaloneFingerprint = "74186a18c35069684ed846de5d4126bf7af646bdb76b6e2378a277b0f585bf6f"

// goldenDrainFingerprint pins the anti-starvation drain matrix (see
// TestGoldenFingerprintDrain).
const goldenDrainFingerprint = "ed3cf6a078924772ddd6d82af84b428d18c810700e3bf38f817e2170127f01b5"

// fingerprintTimingSpec is the canned timing matrix. Short enough for CI,
// wide enough to cross every arbiter family (SPAA pipeline, PIM1/WFA
// waves), both permutation and random patterns, and an under- and
// over-saturated rate.
func fingerprintTimingSpec() Spec {
	return NewSpec(
		WithName("fingerprint timing matrix"),
		WithTopology(4, 4),
		WithArbiters("SPAA-rotary", "PIM1", "WFA-base"),
		WithPatterns("random", "bit-reversal"),
		WithProcesses("bernoulli"),
		WithRates(0.02, 0.06),
		WithCycles(1500),
		WithSeed(7),
	)
}

// fingerprintStandaloneSpec is the canned standalone sweep (the Figure 8
// model) at a light and the saturated load.
func fingerprintStandaloneSpec() Spec {
	sp := NewSpec(
		WithName("fingerprint standalone sweep"),
		WithArbiters("MCM", "SPAA-base", "PIM1"),
		WithStandaloneSweep(AxisLoad, 0.4, 1.0),
		WithCycles(300),
		WithSeed(3),
	)
	return sp
}

// resultFingerprint serializes the Result and hashes the bytes.
func resultFingerprint(t *testing.T, res *Result) string {
	t.Helper()
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func runFingerprint(t *testing.T, sp Spec, workers int) string {
	t.Helper()
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := NewRunner(WithWorkers(workers)).Run(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	return resultFingerprint(t, res)
}

func TestGoldenFingerprintTiming(t *testing.T) {
	serial := runFingerprint(t, fingerprintTimingSpec(), 1)
	if serial != goldenTimingFingerprint {
		t.Errorf("timing fingerprint changed:\n  got  %s\n  want %s\n"+
			"simulation output is no longer byte-identical; if the change is intentional, update the golden hash",
			serial, goldenTimingFingerprint)
	}
	parallel := runFingerprint(t, fingerprintTimingSpec(), 4)
	if parallel != serial {
		t.Errorf("parallel run diverged from serial: %s != %s", parallel, serial)
	}
}

func TestGoldenFingerprintStandalone(t *testing.T) {
	serial := runFingerprint(t, fingerprintStandaloneSpec(), 1)
	if serial != goldenStandaloneFingerprint {
		t.Errorf("standalone fingerprint changed:\n  got  %s\n  want %s\n"+
			"simulation output is no longer byte-identical; if the change is intentional, update the golden hash",
			serial, goldenStandaloneFingerprint)
	}
	parallel := runFingerprint(t, fingerprintStandaloneSpec(), 4)
	if parallel != serial {
		t.Errorf("parallel run diverged from serial: %s != %s", parallel, serial)
	}
}

// drainRecord is the JSON record goldenDrainFingerprint hashes, one per
// run: the hash was captured on these field names in this order, so
// they must not change while the golden stands.
type drainRecord struct {
	OfferedRate   float64
	Throughput    float64
	AvgLatencyNS  float64
	Packets       int64
	Completed     int64
	DrainEntries  int64
	Collisions    int64
	MeanHops      float64
	LatencyP50NS  float64
	LatencyP95NS  float64
	LatencyP99NS  float64
	EpochFlits    []int64
	ThroughputCoV float64
	Metrics       *obs.Snapshot
}

// TestGoldenFingerprintDrain pins the anti-starvation path (§3.4), which
// the matrices above never reach: their runs are far shorter than the
// 20,000-cycle default AntiStarvationAge. Every router kind runs a
// saturating random load and a hotspot load with the age and threshold
// lowered until the drain engages, with the oracle and telemetry on, and
// the JSON of every run's drainRecord is hashed in order.
func TestGoldenFingerprintDrain(t *testing.T) {
	cases := []struct {
		pattern        string
		rate           float64
		age, threshold int
	}{
		{"random", 0.09, 30, 1},
		{"hotspot", 0.06, 150, 6},
	}
	h := sha256.New()
	for _, kind := range []string{"SPAA-base", "SPAA-rotary", "PIM1", "WFA-base", "WFA-rotary"} {
		for _, tc := range cases {
			tr := pointRun(t, NewSpec(
				WithTopology(4, 4), WithArbiters(kind), WithPatterns(tc.pattern), WithRates(tc.rate),
				WithMaxOutstanding(64), WithCycles(2000), WithSeed(11), WithCheck(), WithMetrics(),
			))
			tr.router.AntiStarvationAge = tc.age
			tr.router.AntiStarvationThreshold = tc.threshold
			pt, err := runTiming(context.Background(), tr)
			if err != nil {
				t.Fatalf("%s %s: %v", kind, tc.pattern, err)
			}
			if pt.DrainEntries == 0 {
				t.Errorf("%s %s: the drain never engaged", kind, tc.pattern)
			}
			data, err := json.Marshal(drainRecord{
				OfferedRate: pt.Rate, Throughput: pt.Throughput, AvgLatencyNS: pt.AvgLatencyNS,
				Packets: pt.Packets, Completed: pt.Completed, DrainEntries: pt.DrainEntries,
				Collisions: pt.Collisions, MeanHops: pt.MeanHops, LatencyP50NS: pt.LatencyP50NS,
				LatencyP95NS: pt.LatencyP95NS, LatencyP99NS: pt.LatencyP99NS, EpochFlits: pt.EpochFlits,
				ThroughputCoV: pt.ThroughputCoV, Metrics: pt.Metrics,
			})
			if err != nil {
				t.Fatal(err)
			}
			h.Write(data)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenDrainFingerprint {
		t.Errorf("drain fingerprint changed:\n  got  %s\n  want %s\n"+
			"simulation output is no longer byte-identical; if the change is intentional, update the golden hash",
			got, goldenDrainFingerprint)
	}
}
