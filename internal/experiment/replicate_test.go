package experiment

// replicate_test.go pins the replication half of the oracle PR: a spec
// with Replications: 1 reproduces the PR-4 fingerprints byte for byte,
// replicated points carry well-formed mean/stddev/CI annotations whose
// headline values are replication 0's, and the extended Result schema
// survives its JSON line.

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestReplicationsOneReproducesFingerprints: replication 0 always runs
// the spec's own seed, so Replications: 1 must reproduce the PR-4 golden
// fingerprints byte for byte. The spec echo inside the Result is
// normalized, since it records the request, not the simulation output.
func TestReplicationsOneReproducesFingerprints(t *testing.T) {
	for _, tc := range []struct {
		name   string
		spec   Spec
		golden string
	}{
		{"timing", fingerprintTimingSpec(), goldenTimingFingerprint},
		{"standalone", fingerprintStandaloneSpec(), goldenStandaloneFingerprint},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp := tc.spec
			sp.Replications = 1
			res, err := NewRunner(WithWorkers(2)).Run(context.Background(), sp)
			if err != nil {
				t.Fatal(err)
			}
			res.Spec.Replications = 0 // normalize the request echo
			if got := resultFingerprint(t, res); got != tc.golden {
				t.Errorf("Replications: 1 diverged from the PR-4 fingerprint:\n  got  %s\n  want %s", got, tc.golden)
			}
		})
	}
}

func smallReplicatedSpec(reps int) Spec {
	return NewSpec(
		WithName("replication test"),
		WithTopology(4, 4),
		WithArbiters("SPAA-rotary"),
		WithRates(0.02, 0.05),
		WithCycles(1200),
		WithSeed(11),
		WithReplications(reps),
	)
}

func TestReplicatedPointAnnotations(t *testing.T) {
	const reps = 4
	base, err := NewRunner(WithWorkers(2)).Run(context.Background(), smallReplicatedSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewRunner(WithWorkers(4)).Run(context.Background(), smallReplicatedSpec(reps))
	if err != nil {
		t.Fatal(err)
	}
	for si, s := range res.Series {
		if len(s.Points) != 2 {
			t.Fatalf("series %q has %d points, want 2", s.Label, len(s.Points))
		}
		for pi, p := range s.Points {
			rs := p.Replication
			if rs == nil {
				t.Fatalf("point %d carries no replication stats", pi)
			}
			if rs.Replications != reps || rs.Confidence != DefaultConfidence {
				t.Errorf("replication header = (%d, %g), want (%d, %g)",
					rs.Replications, rs.Confidence, reps, DefaultConfidence)
			}
			if rs.Throughput.Stddev < 0 || rs.Throughput.CIHalfWidth < 0 {
				t.Errorf("negative dispersion: %+v", rs.Throughput)
			}
			if rs.Throughput.Mean <= 0 || rs.AvgLatencyNS.Mean <= 0 || rs.LatencyP99NS.Mean <= 0 {
				t.Errorf("empty metric means: %+v", rs)
			}
			// Headline values are replication 0: the unreplicated run.
			bp := base.Series[si].Points[pi]
			p.Replication = nil
			if !reflect.DeepEqual(p, bp) {
				t.Errorf("headline point diverged from replication 0:\n got %+v\nwant %+v", p, bp)
			}
			// Distinct seeds must actually have run: with four seeds on a
			// stochastic workload, identical throughput everywhere would
			// mean the seeds collapsed.
			if rs.Throughput.Stddev == 0 && rs.AvgLatencyNS.Stddev == 0 {
				t.Errorf("replications produced identical results; seeds likely collapsed")
			}
		}
	}
}

func TestReplicatedResultRoundTrips(t *testing.T) {
	res, err := NewRunner(WithWorkers(4)).Run(context.Background(), NewSpec(
		WithName("replicated standalone"),
		WithArbiters("PIM1", "MCM"),
		WithStandaloneSweep(AxisLoad, 0.5, 1.0),
		WithCycles(150),
		WithSeed(5),
		WithReplications(3),
		WithConfidence(0.99),
	))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		for _, p := range s.Points {
			if p.Replication == nil || p.Replication.MatchesPerCycle.Mean <= 0 {
				t.Fatalf("standalone replication stats missing: %+v", p.Replication)
			}
			if p.Replication.Confidence != 0.99 {
				t.Fatalf("confidence = %g, want 0.99", p.Replication.Confidence)
			}
			// Timing metrics must be omitted in standalone mode.
			if p.Replication.Throughput != (MetricStats{}) {
				t.Fatalf("standalone point carries timing metrics: %+v", p.Replication)
			}
		}
	}

	// Result line round trip.
	var buf bytes.Buffer
	if err := res.EncodeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"replication":{"replications":3,"confidence":0.99`) {
		t.Errorf("JSONL stream does not carry the replication annotation:\n%s", buf.String())
	}
	back, err := DecodeResultJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, res) {
		t.Error("JSONL round trip lost the replication annotation")
	}

	// The standalone annotation serializes without the timing metrics.
	data, err := json.Marshal(res.Series[0].Points[0].Replication)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "throughput") || !strings.Contains(string(data), "matches_per_cycle") {
		t.Errorf("standalone annotation serialized wrong metrics: %s", data)
	}
}

func TestReplicationSpecValidation(t *testing.T) {
	base := func() Spec { return smallReplicatedSpec(0) }
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string
	}{
		{"negative replications", func(s *Spec) { s.Replications = -1 }, "replications"},
		{"confidence out of range", func(s *Spec) { s.Replications = 3; s.Confidence = 1 }, "confidence"},
		{"confidence without replications", func(s *Spec) { s.Confidence = 0.9 }, "requires replications"},
		{"record with replications", func(s *Spec) {
			s.Replications = 2
			s.Arbiters = s.Arbiters[:1]
			s.Workload.Rates = s.Workload.Rates[:1]
			s.Workload.RecordTo = "x.trace"
		}, "record_to contradicts replications"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sp := base()
			c.mutate(&sp)
			err := sp.Validate()
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("Validate() = %v, want error mentioning %q", err, c.wantErr)
			}
		})
	}
	ok := base()
	ok.Replications = 3
	ok.Confidence = 0.9
	if err := ok.Validate(); err != nil {
		t.Errorf("valid replicated spec rejected: %v", err)
	}
}

// TestReplicatedSpecRoundTrips pins the extended Spec schema: the new
// fields survive the strict encode/parse cycle byte for byte.
func TestReplicatedSpecRoundTrips(t *testing.T) {
	sp := smallReplicatedSpec(5)
	sp.Confidence = 0.99
	sp.Check = true
	data, err := EncodeSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"replications": 5`, `"confidence": 0.99`, `"check": true`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("encoded spec missing %s:\n%s", want, data)
		}
	}
	back, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := EncodeSpec(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Errorf("spec round trip not byte-identical:\n%s\nvs\n%s", data, again)
	}
}

// TestReplicatedPartialCutsWholePoints: a cancelled replicated run keeps
// only points all of whose replications finished.
func TestReplicatedPartialCutsWholePoints(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expansion succeeds, every job fails fast
	res, err := NewRunner(WithWorkers(1)).Run(ctx, smallReplicatedSpec(3))
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	if res == nil || !res.Partial {
		t.Fatalf("cancelled run did not return a partial result: %+v", res)
	}
	for _, s := range res.Series {
		if len(s.Points) != 0 {
			t.Errorf("cancelled-before-start run kept %d points", len(s.Points))
		}
	}
}
