package experiment

import (
	"bytes"
	"context"
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
	return res
}

func TestResultJSONLRoundTrip(t *testing.T) {
	res := runQuickResult(t)
	var buf bytes.Buffer
	if err := res.EncodeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 1 || !strings.HasSuffix(buf.String(), "\n") {
		t.Fatalf("a Result encodes to %d newlines, want one line:\n%s", n, buf.String())
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

// oldResultStream is the head of a Result in the three-record JSONL
// framing (result, series and point lines) that earlier builds wrote.
const oldResultStream = `{"type":"result","version":1,"spec":{"version":1,"name":"schema probe","mode":"standalone","arbiters":["MCM"],"standalone":{"cycles":50,"seed":1,"axis":"load","values":[0.5]}}}
{"type":"series","label":"MCM","arbiter":"MCM"}
{"type":"point","series":"MCM","point":{"axis":0.5,"matches_per_cycle":3.92,"offered_per_cycle":4,"mean_queue_len":2.14}}
`

func TestDecodeResultJSONLStrict(t *testing.T) {
	res := runQuickResult(t)
	var buf bytes.Buffer
	if err := res.EncodeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"empty", "", "empty"},
		{"blank line", "\n", "empty"},
		{"null", "null\n", "null"},
		{"unknown version", strings.Replace(good, `"version":1`, `"version":7`, 1), "version 7"},
		{"unknown field", `{"extra":1,` + good[1:], `unknown field "extra"`},
		{"truncated", good[:len(good)/2], "unexpected EOF"},
		{"second Result", good + good, "trailing data"},
		{"stray brace", good + "}", "trailing data"},
		{"three-record stream", oldResultStream, `unknown field "type"`},
	}
	for _, tc := range cases {
		if _, err := DecodeResultJSONL(strings.NewReader(tc.doc)); err == nil {
			t.Errorf("%s: decoder accepted the document", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// FuzzDecodeResultJSONL throws mutated Result lines at the strict
// decoder: it must never panic, and any line it accepts must re-encode
// to a fixed point — the re-encoded line decodes again and encodes to
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
	var line []byte
	for _, sp := range []Spec{quickStandaloneSpec(), timing} {
		res, err := NewRunner(WithWorkers(1)).Run(context.Background(), sp)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.EncodeJSONL(&buf); err != nil {
			f.Fatal(err)
		}
		line = buf.Bytes()
		f.Add(line)
	}
	if !bytes.Contains(line, []byte(`"metrics":{"version":1`)) {
		f.Fatal("timing seed carries no metrics snapshot")
	}
	// The metric-laden timing line cut in half, the same line followed by
	// a second value, and a stream in the old three-record framing.
	f.Add(line[:len(line)/2])
	f.Add(append(bytes.Clone(line), `{"type":"error","error":"boom"}`+"\n"...))
	f.Add([]byte(oldResultStream))
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeResultJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := res.EncodeJSONL(&first); err != nil {
			t.Fatalf("accepted line failed to encode: %v", err)
		}
		again, err := DecodeResultJSONL(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded line rejected: %v\n%s", err, first.Bytes())
		}
		if err := again.EncodeJSONL(&second); err != nil {
			t.Fatalf("re-decoded line failed to encode: %v", err)
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
