package experiment

// metrics_test.go enforces the telemetry layer's contracts at the
// experiment level: a metrics-enabled run measures exactly what a bare
// run measures (observation-only, byte-compared after stripping the
// snapshots themselves), every timing point carries a snapshot, the
// sidecar document round-trips, and Spec.Metrics participates in the
// cache key so metric-laden and bare points never cross-contaminate.

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"
)

// metricsTestSpec is a short timing matrix crossing the SPAA pipeline
// and a wave arbiter, so both instrumentation paths run.
func metricsTestSpec() Spec {
	return NewSpec(
		WithName("metrics test"),
		WithTopology(4, 4),
		WithArbiters("SPAA-rotary", "PIM1"),
		WithPatterns("random"),
		WithRates(0.02, 0.05),
		WithCycles(800),
		WithSeed(11),
	)
}

// stripMetrics removes the telemetry from a Result, leaving only the
// measured numbers, so a metrics run can be byte-compared to a bare run.
func stripMetrics(r *Result) {
	r.Spec.Metrics = false
	for si := range r.Series {
		for pi := range r.Series[si].Points {
			r.Series[si].Points[pi].Metrics = nil
		}
	}
}

// TestMetricsObservationOnly is the experiment-level half of the
// telemetry contract: enabling metrics (with and without the checker)
// must not change a single measured byte.
func TestMetricsObservationOnly(t *testing.T) {
	run := func(mut ...SpecOption) *Result {
		t.Helper()
		sp := metricsTestSpec()
		for _, m := range mut {
			m(&sp)
		}
		res, err := NewRunner(WithWorkers(2)).Run(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		res.ElapsedNS = 0
		return res
	}
	bare := run()
	instrumented := run(WithMetrics())
	checked := run(WithMetrics(), WithCheck())

	for _, s := range instrumented.Series {
		for _, p := range s.Points {
			if p.Metrics == nil {
				t.Fatalf("series %q rate %g: metrics-enabled point has no snapshot", s.Label, p.Rate)
			}
			if p.Metrics.Version != 1 || p.Metrics.ElapsedTicks <= 0 {
				t.Errorf("series %q: implausible snapshot header: %+v", s.Label, p.Metrics)
			}
		}
	}

	stripMetrics(instrumented)
	stripMetrics(checked)
	checked.Spec.Check = false
	want, _ := json.Marshal(bare)
	got, _ := json.Marshal(instrumented)
	if string(got) != string(want) {
		t.Error("metrics-enabled run diverged from bare run (observation-only contract broken)")
	}
	gotChecked, _ := json.Marshal(checked)
	if string(gotChecked) != string(want) {
		t.Error("metrics+check run diverged from bare run (observation-only contract broken)")
	}

	if bare.Series[0].Points[0].Metrics != nil {
		t.Error("bare run carries a snapshot; metrics must be opt-in")
	}
}

func TestMetricsSidecarRoundTrip(t *testing.T) {
	sp := metricsTestSpec()
	WithMetrics()(&sp)
	res, err := NewRunner(WithWorkers(1)).Run(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}

	sc := MetricsSidecarOf(res)
	if sc == nil {
		t.Fatal("metrics run produced no sidecar")
	}
	wantPoints := 0
	for _, s := range res.Series {
		wantPoints += len(s.Points)
	}
	if len(sc.Points) != wantPoints {
		t.Fatalf("sidecar has %d points, result has %d", len(sc.Points), wantPoints)
	}
	if sc.Name != sp.Name {
		t.Errorf("sidecar name = %q, want %q", sc.Name, sp.Name)
	}

	path := filepath.Join(t.TempDir(), "run.metrics.json")
	if err := sc.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMetricsSidecarFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(sc)
	b, _ := json.Marshal(back)
	if string(a) != string(b) {
		t.Error("sidecar did not round-trip byte-identically")
	}

	// A bare result yields no sidecar at all.
	bareSpec := metricsTestSpec()
	bare, err := NewRunner(WithWorkers(1)).Run(context.Background(), bareSpec)
	if err != nil {
		t.Fatal(err)
	}
	if MetricsSidecarOf(bare) != nil {
		t.Error("bare run produced a sidecar")
	}
}

func TestStripVolatile(t *testing.T) {
	StripVolatile(nil) // must not panic
	r := &Result{ElapsedNS: 12345}
	StripVolatile(r)
	if r.ElapsedNS != 0 {
		t.Errorf("ElapsedNS = %d after StripVolatile", r.ElapsedNS)
	}
}

// TestMetricsResultRoundTrip pins that a metric-laden Result survives
// the strict JSONL writer/reader unchanged, and that bare results do not
// grow a metrics key.
func TestMetricsResultRoundTrip(t *testing.T) {
	sp := metricsTestSpec()
	WithMetrics()(&sp)
	res, err := NewRunner(WithWorkers(1)).Run(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := res.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResultFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(res.Series)
	b, _ := json.Marshal(back.Series)
	if string(a) != string(b) {
		t.Error("metric-laden result did not round-trip through JSONL")
	}

	data, _ := json.Marshal(res.Series[0].Points[0])
	if !json.Valid(data) {
		t.Fatal("point did not marshal")
	}
	bare := ResultPoint{}
	bareData, _ := json.Marshal(bare)
	if string(bareData) != "{}" && jsonHasKey(bareData, "metrics") {
		t.Errorf("bare point emits a metrics key: %s", bareData)
	}
}

func jsonHasKey(data []byte, key string) bool {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		return false
	}
	_, ok := m[key]
	return ok
}

// TestMetricsParticipatesInSpecHash pins the cache-correctness rule:
// metrics changes the bytes of every point, so it must change the cache
// key — unlike Check, which is byte-invisible and stripped.
func TestMetricsParticipatesInSpecHash(t *testing.T) {
	bare := metricsTestSpec()
	withMetrics := metricsTestSpec()
	WithMetrics()(&withMetrics)
	withCheck := metricsTestSpec()
	WithCheck()(&withCheck)

	hBare, err := SpecHash(bare)
	if err != nil {
		t.Fatal(err)
	}
	hMetrics, err := SpecHash(withMetrics)
	if err != nil {
		t.Fatal(err)
	}
	hCheck, err := SpecHash(withCheck)
	if err != nil {
		t.Fatal(err)
	}
	if hBare == hMetrics {
		t.Error("metrics spec hashes identically to bare spec; cached bare points would be served to metrics runs")
	}
	if hBare != hCheck {
		t.Error("check spec hashes differently from bare spec; check is observation-only and must be stripped")
	}
}

func TestMetricsSpecJSONRoundTrip(t *testing.T) {
	sp := metricsTestSpec()
	WithMetrics()(&sp)
	data, err := EncodeSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Metrics {
		t.Error("Metrics did not survive the spec JSON round trip")
	}

	bare := metricsTestSpec()
	bareData, err := EncodeSpec(bare)
	if err != nil {
		t.Fatal(err)
	}
	if jsonHasKey(bareData, "metrics") {
		t.Errorf("bare spec emits a metrics key: %s", bareData)
	}
}

func TestMetricsRejectedForStandalone(t *testing.T) {
	sp := NewSpec(
		WithArbiters("MCM"),
		WithStandaloneSweep(AxisLoad, 0.5, 1.0),
		WithCycles(100),
		WithMetrics(),
	)
	if err := sp.Validate(); err == nil {
		t.Error("standalone spec with metrics validated; the standalone model has no routers to observe")
	}
}
