package experiment

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// quickStandaloneSpec is a deterministic, fast spec for schema tests.
func quickStandaloneSpec() Spec {
	return NewSpec(
		WithName("schema probe"),
		WithArbiters("MCM", "PIM1"),
		WithStandaloneSweep(AxisLoad, 0.5, 1.0, 2.0),
		WithCycles(50),
		WithSeed(1),
	)
}

func runQuickResult(t *testing.T) *Result {
	t.Helper()
	res, err := NewRunner(WithWorkers(1)).Run(context.Background(), quickStandaloneSpec())
	if err != nil {
		t.Fatal(err)
	}
	res.ElapsedNS = 0 // the one nondeterministic field
	return res
}

func TestResultJSONLRoundTrip(t *testing.T) {
	res := runQuickResult(t)
	var buf bytes.Buffer
	if err := res.EncodeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResultJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Errorf("JSONL round-trip changed the result:\ngot  %+v\nwant %+v", back, res)
	}
}

func TestResultGoldenJSONL(t *testing.T) {
	res := runQuickResult(t)
	var buf bytes.Buffer
	if err := res.EncodeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "standalone.result.jsonl", buf.Bytes())
}

func TestResultFileRoundTrip(t *testing.T) {
	res := runQuickResult(t)
	path := filepath.Join(t.TempDir(), "result.json")
	if err := res.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResultFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Errorf("file round-trip changed the result")
	}
}

func TestDecodeResultJSONLStrict(t *testing.T) {
	res := runQuickResult(t)
	var buf bytes.Buffer
	if err := res.EncodeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	pointAt := strings.Index(good, `{"type":"point"`)
	pointEnd := pointAt + strings.Index(good[pointAt:], "\n")

	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"empty", "", "empty"},
		{"unknown version", strings.Replace(good, `"version":1`, `"version":7`, 1), "version"},
		{"unknown record type", strings.Replace(good, `"type":"series"`, `"type":"serie"`, 1), "unknown record type"},
		{"unknown field", strings.Replace(good, `"type":"point"`, `"type":"point","extra":1`, 1), "unknown field"},
		{"point before series", strings.Replace(good, `"type":"series"`, `"type":"point","series":"x","point":{}`, 1), ""},
		{"no header", strings.TrimPrefix(good, good[:strings.Index(good, "\n")+1]), "header"},
		{"cut mid point line", good[:(pointAt+pointEnd)/2], "decode result line"},
		{"error record after a valid stream", good + `{"type":"error","error":"boom"}` + "\n", `unknown record type "error"`},
	}
	for _, tc := range cases {
		if _, err := DecodeResultJSONL(strings.NewReader(tc.doc)); err == nil {
			t.Errorf("%s: decoder accepted the document", tc.name)
		} else if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// FuzzDecodeResultJSONL throws mutated Result streams at the strict
// decoder: it must never panic, and any stream it accepts must re-encode
// to a fixed point — the re-encoded stream decodes again and encodes to
// the same bytes.
func FuzzDecodeResultJSONL(f *testing.F) {
	timing := NewSpec(
		WithName("fuzz seed"),
		WithTopology(2, 2),
		WithArbiters("PIM1", "SPAA-rotary"),
		WithPatterns("random"),
		WithRates(0.02, 0.04),
		WithCycles(200),
		WithSeed(1),
		WithMetrics(),
	)
	var stream []byte
	for _, sp := range []Spec{quickStandaloneSpec(), timing} {
		res, err := NewRunner(WithWorkers(1)).Run(context.Background(), sp)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.EncodeJSONL(&buf); err != nil {
			f.Fatal(err)
		}
		stream = buf.Bytes()
		f.Add(stream)
	}
	if !bytes.Contains(stream, []byte(`"metrics":{"version":1`)) {
		f.Fatal("timing seed carries no metrics snapshot")
	}
	// The metric-laden timing stream cut in the middle of its last point
	// line, and the same stream followed by an error record.
	last := bytes.LastIndex(stream, []byte(`{"type":"point"`))
	f.Add(stream[:last+(len(stream)-last)/2])
	f.Add(append(append([]byte(nil), stream...), `{"type":"error","error":"boom"}`+"\n"...))
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeResultJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := res.EncodeJSONL(&first); err != nil {
			t.Fatalf("accepted stream failed to encode: %v", err)
		}
		again, err := DecodeResultJSONL(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v\n%s", err, first.Bytes())
		}
		if err := again.EncodeJSONL(&second); err != nil {
			t.Fatalf("re-decoded stream failed to encode: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding is not a fixed point:\nfirst  %s\nsecond %s", first.Bytes(), second.Bytes())
		}
	})
}

// TestResultTableShapes checks the layout dispatch: standalone specs get
// the axis table, single-axis sweeps get one row per Spec rate (a
// partial series renders its missing rows as "-"), and matrices get one
// row per scenario.
func TestResultTableShapes(t *testing.T) {
	res := runQuickResult(t)
	tb := res.Table()
	if tb.Columns[0] != AxisLoad {
		t.Errorf("standalone table axis column = %q", tb.Columns[0])
	}
	if len(tb.Rows) != 3 || len(tb.Columns) != 3 {
		t.Errorf("standalone table is %dx%d, want 3x3", len(tb.Rows), len(tb.Columns))
	}

	sweep := &Result{
		Version: ResultVersion,
		Spec: NewSpec(
			WithName("s"),
			WithTopology(4, 4),
			WithArbiters("PIM1", "SPAA-base"),
			WithRates(0.01, 0.02),
			WithCycles(100),
		),
		Partial: true,
		Series: []ResultSeries{
			{Label: "PIM1", Arbiter: "PIM1", Points: []ResultPoint{
				{Rate: 0.01, Throughput: 0.1, AvgLatencyNS: 50}, {Rate: 0.02, Throughput: 0.2, AvgLatencyNS: 60}}},
			{Label: "SPAA-base", Arbiter: "SPAA-base", Points: []ResultPoint{
				{Rate: 0.01, Throughput: 0.1, AvgLatencyNS: 45}}},
		},
	}
	want := "s\n" +
		"rate(txn/node/cyc),PIM1 tput,PIM1 lat(ns),SPAA-base tput,SPAA-base lat(ns)\n" +
		"0.0100,0.1000,50.0,0.1000,45.0\n" +
		"0.0200,0.2000,60.0,-,-\n"
	if tb = sweep.Table(); tb.Title+"\n"+tb.CSV() != want {
		t.Errorf("rate table =\n%s%s\nwant\n%s", tb.Title+"\n", tb.CSV(), want)
	}

	matrix := &Result{
		Version: ResultVersion,
		Spec: NewSpec(
			WithName("m"),
			WithTopology(4, 4),
			WithArbiters("PIM1"),
			WithPatterns("random", "tornado"),
			WithRates(0.01),
			WithCycles(100),
		),
		Series: []ResultSeries{
			{Label: "a", Arbiter: "PIM1", Pattern: "random", Process: "bernoulli",
				Points: []ResultPoint{{Rate: 0.01}}},
			{Label: "b", Arbiter: "PIM1", Pattern: "tornado", Process: "bernoulli",
				Points: []ResultPoint{{Rate: 0.01}}},
		},
	}
	tb = matrix.Table()
	if tb.Columns[0] != "algorithm" {
		t.Errorf("matrix table first column = %q, want algorithm", tb.Columns[0])
	}
	if len(tb.Rows) != 2 {
		t.Errorf("matrix table has %d rows, want 2", len(tb.Rows))
	}

	// Replay specs have no rate axis, so the rate layout would render
	// zero rows; the measured point must still appear.
	replay := &Result{
		Version: ResultVersion,
		Spec: NewSpec(
			WithName("r"),
			WithTopology(4, 4),
			WithArbiters("PIM1"),
			WithReplay("x.trace"),
			WithCycles(100),
		),
		Series: []ResultSeries{
			{Label: "PIM1", Arbiter: "PIM1", Points: []ResultPoint{{Throughput: 0.5, Packets: 7}}},
		},
	}
	tb = replay.Table()
	if len(tb.Rows) != 1 {
		t.Errorf("replay table has %d rows, want 1", len(tb.Rows))
	}
}

func TestResultSeriesThroughputAtLatency(t *testing.T) {
	s := ResultSeries{Label: "x", Points: []ResultPoint{
		{Throughput: 0.1, AvgLatencyNS: 50},
		{Throughput: 0.3, AvgLatencyNS: 80},
		{Throughput: 0.5, AvgLatencyNS: 200},
	}}
	tp, ok := s.ThroughputAtLatency(80)
	if !ok || tp < 0.299 || tp > 0.301 {
		t.Errorf("at 80 ns = %v, %v; want 0.3", tp, ok)
	}
	tp, ok = s.ThroughputAtLatency(140)
	if !ok || tp <= 0.3 || tp >= 0.5 {
		t.Errorf("interpolated 140 ns = %v, want in (0.3, 0.5)", tp)
	}
	if _, ok := s.ThroughputAtLatency(10); ok {
		t.Error("latency below the whole curve should report not found")
	}
}

func TestResultSeriesPeakAndFinal(t *testing.T) {
	s := ResultSeries{Points: []ResultPoint{
		{Throughput: 0.2}, {Throughput: 0.6}, {Throughput: 0.4},
	}}
	if s.PeakThroughput() != 0.6 {
		t.Errorf("peak = %v, want 0.6", s.PeakThroughput())
	}
	if s.FinalThroughput() != 0.4 {
		t.Errorf("final = %v, want 0.4 (post-saturation collapse)", s.FinalThroughput())
	}
	var empty ResultSeries
	if empty.FinalThroughput() != 0 || empty.PeakThroughput() != 0 {
		t.Error("empty series should be zero")
	}
}
