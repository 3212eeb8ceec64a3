package experiment

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"alpha21364/internal/workload"
)

// updateGolden regenerates the testdata golden files:
//
//	go test ./internal/experiment -run Golden -update
var updateGolden = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestSpecGoldenRoundTrip pins the serialized form of a canned figure
// spec and checks the round-trip guarantee: marshal → parse → marshal is
// byte-identical and structurally lossless.
func TestSpecGoldenRoundTrip(t *testing.T) {
	o := Options{Quick: true, Seed: 1}
	for _, fig := range []string{"8", "10s"} {
		specs, err := FigureSpecs(fig, o)
		if err != nil {
			t.Fatal(err)
		}
		spec := specs[0]
		data, err := EncodeSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "figure"+fig+".spec.json", data)

		parsed, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("figure %s: reparse: %v", fig, err)
		}
		if !reflect.DeepEqual(parsed, spec) {
			t.Errorf("figure %s: parse is lossy:\ngot  %+v\nwant %+v", fig, parsed, spec)
		}
		again, err := EncodeSpec(parsed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Errorf("figure %s: marshal→parse→marshal is not byte-identical", fig)
		}
	}
}

// TestFigureSpecsCoverEveryFigure checks the canned registry is total
// and every spec it returns validates.
func TestFigureSpecsCoverEveryFigure(t *testing.T) {
	o := Options{Quick: true, Seed: 1}
	all, err := FigureSpecs("all", o)
	if err != nil {
		t.Fatal(err)
	}
	// 8, 9, 10 (four panels), 10s, 11a, 11b, 11c.
	if len(all) != 10 {
		t.Fatalf("FigureSpecs(all) returned %d specs, want 10", len(all))
	}
	for _, sp := range all {
		if err := sp.Validate(); err != nil {
			t.Errorf("%s: %v", sp.Name, err)
		}
	}
	if _, err := FigureSpecs("nope", o); err == nil {
		t.Error("unknown figure name was accepted")
	}
}

func validTimingSpec() Spec {
	return NewSpec(
		WithName("t"),
		WithTopology(4, 4),
		WithArbiters("SPAA-rotary"),
		WithRates(0.02),
		WithCycles(1000),
		WithSeed(1),
	)
}

func TestSpecValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"wrong version", func(s *Spec) { s.Version = 2 }, "version"},
		{"no arbiters", func(s *Spec) { s.Arbiters = nil }, "arbiter"},
		{"bad arbiter", func(s *Spec) { s.Arbiters = []string{"nope"} }, "nope"},
		{"bad mode", func(s *Spec) { s.Mode = "quantum" }, "mode"},
		{"no topology", func(s *Spec) { s.Topology = nil }, "topology"},
		{"tiny topology", func(s *Spec) { s.Topology.Width = 1 }, ">= 2"},
		{"no timing", func(s *Spec) { s.Timing = nil }, "cycle"},
		{"no cycles", func(s *Spec) { s.Timing.Cycles = 0 }, "cycle"},
		{"warmup is the whole run", func(s *Spec) { s.Timing.WarmupFraction = 1 }, "warmup_fraction"},
		{"warmup past the run", func(s *Spec) { s.Timing.WarmupFraction = 1.5 }, "warmup_fraction"},
		{"warmup NaN", func(s *Spec) { s.Timing.WarmupFraction = math.NaN() }, "warmup_fraction"},
		{"no workload", func(s *Spec) { s.Workload = nil }, "workload"},
		{"no rates", func(s *Spec) { s.Workload.Rates = nil }, "rate"},
		{"negative rate", func(s *Spec) { s.Workload.Rates = []float64{-0.1} }, "positive"},
		{"NaN rate", func(s *Spec) { s.Workload.Rates = []float64{0.01, math.NaN()} }, "rates[1]"},
		{"+Inf rate", func(s *Spec) { s.Workload.Rates = []float64{math.Inf(1)} }, "finite"},
		{"NaN confidence", func(s *Spec) {
			s.Replications = 3
			s.Confidence = math.NaN()
		}, "confidence"},
		{"bad pattern", func(s *Spec) { s.Workload.Patterns = []string{"zigzag"} }, "zigzag"},
		{"empty pattern", func(s *Spec) { s.Workload.Patterns = []string{""} }, "unknown pattern"},
		{"pattern needs pow2", func(s *Spec) {
			s.Topology = &TopologySpec{Width: 5, Height: 3}
			s.Workload.Patterns = []string{"bit-reversal"}
		}, "power-of-two"},
		{"bad process", func(s *Spec) { s.Workload.Processes = []string{"fractal"} }, "fractal"},
		{"bad model", func(s *Spec) { s.Workload.Model = "telepathy" }, "telepathy"},
		{"record on a sweep", func(s *Spec) {
			s.Workload.RecordTo = "x.trace"
			s.Workload.Rates = []float64{0.01, 0.02}
		}, "record_to"},
		{"replay with patterns", func(s *Spec) {
			s.Workload = &WorkloadSpec{ReplayFrom: "x.trace", Patterns: []string{"random"}}
		}, "contradicts patterns"},
		{"replay with rates", func(s *Spec) {
			s.Workload = &WorkloadSpec{ReplayFrom: "x.trace", Rates: []float64{0.01}}
		}, "contradicts rates"},
		{"replay with record", func(s *Spec) {
			s.Workload = &WorkloadSpec{ReplayFrom: "x.trace", RecordTo: "y.trace"}
		}, "record_to"},
		{"replay with max_outstanding", func(s *Spec) {
			s.Workload = &WorkloadSpec{ReplayFrom: "x.trace", MaxOutstanding: 1}
		}, "contradicts max_outstanding"},
		{"standalone section on timing spec", func(s *Spec) {
			s.Standalone = &StandaloneSpec{Cycles: 10, Axis: AxisLoad, Values: []float64{1}}
		}, "standalone section"},
	}
	for _, tc := range cases {
		sp := validTimingSpec()
		tc.mut(&sp)
		err := sp.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the spec", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestSpecValidatePatternNames pins the destination-pattern names a
// Spec accepts: every name and alias in any letter case, the
// bit-permutation patterns only on tori whose node count is a power of
// two. An accepted name's series carries the canonical spelling.
func TestSpecValidatePatternNames(t *testing.T) {
	canonical := map[string]string{"uniform": "random", "shuffle": "perfect-shuffle"}
	for _, name := range workload.PatternNames() {
		canonical[name] = name
	}
	for name, canon := range canonical {
		bitPerm := canon == "bit-reversal" || canon == "perfect-shuffle"
		for _, spelling := range []string{name, strings.ToUpper(name), strings.ToUpper(name[:1]) + name[1:]} {
			for _, dims := range [][2]int{{4, 4}, {2, 8}, {5, 3}, {6, 6}} {
				sp := validTimingSpec()
				sp.Topology = &TopologySpec{Width: dims[0], Height: dims[1]}
				sp.Workload.Patterns = []string{spelling}
				pow2 := dims[0]*dims[1]&(dims[0]*dims[1]-1) == 0
				pl, err := sp.expand()
				if bitPerm && !pow2 {
					if err == nil || !strings.Contains(err.Error(), "power-of-two") {
						t.Errorf("%q on %dx%d: error %v, want a power-of-two rejection", spelling, dims[0], dims[1], err)
					}
					continue
				}
				if err != nil {
					t.Errorf("%q on %dx%d rejected: %v", spelling, dims[0], dims[1], err)
					continue
				}
				if got := pl.series[0].meta.Pattern; got != canon {
					t.Errorf("%q on %dx%d: series pattern %q, want %q", spelling, dims[0], dims[1], got, canon)
				}
			}
		}
	}
}

func TestSpecValidateStandalone(t *testing.T) {
	good := NewSpec(
		WithArbiters("MCM", "PIM"),
		WithStandaloneSweep(AxisLoadFraction, 0.5, 1.0),
		WithCycles(100),
		WithSeed(2),
	)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid standalone spec rejected: %v", err)
	}
	// WithCycles/WithSeed after WithStandaloneSweep land in the
	// standalone section.
	if good.Standalone.Cycles != 100 || good.Standalone.Seed != 2 {
		t.Errorf("mode-aware options missed the standalone section: %+v", good.Standalone)
	}
	if good.Timing != nil {
		t.Error("standalone build leaked a timing section")
	}
	// Option order must not matter: cycles/seed applied before the mode
	// switch are migrated into the standalone section by NewSpec.
	reordered := NewSpec(
		WithCycles(100),
		WithSeed(2),
		WithArbiters("MCM", "PIM"),
		WithStandaloneSweep(AxisLoadFraction, 0.5, 1.0),
	)
	if !reflect.DeepEqual(reordered, good) {
		t.Errorf("option order changed the spec:\ngot  %+v\nwant %+v", reordered, good)
	}

	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"no section", func(s *Spec) { s.Standalone = nil }, "standalone section"},
		{"no cycles", func(s *Spec) { s.Standalone.Cycles = 0 }, "cycle"},
		{"no values", func(s *Spec) { s.Standalone.Values = nil }, "axis value"},
		{"bad axis", func(s *Spec) { s.Standalone.Axis = "voltage" }, "voltage"},
		{"load with occupancy axis", func(s *Spec) {
			s.Standalone.Axis = AxisLoad
			s.Standalone.Load = 2
		}, "load"},
		{"occupancy out of range", func(s *Spec) { s.Standalone.Occupancy = 1.5 }, "occupancy"},
		{"occupancy axis values out of range", func(s *Spec) {
			s.Standalone.Axis = AxisOccupancy
			s.Standalone.Values = []float64{2}
		}, "within [0, 1]"},
		{"NaN load value", func(s *Spec) { s.Standalone.Values = []float64{math.NaN()} }, "values[0]"},
		{"+Inf load value", func(s *Spec) { s.Standalone.Values = []float64{0.5, math.Inf(1)} }, "values[1]"},
		{"NaN occupancy", func(s *Spec) { s.Standalone.Occupancy = math.NaN() }, "occupancy"},
		{"NaN occupancy axis value", func(s *Spec) {
			s.Standalone.Axis = AxisOccupancy
			s.Standalone.Values = []float64{math.NaN()}
		}, "within [0, 1]"},
		{"NaN fixed load", func(s *Spec) {
			s.Standalone.Axis = AxisOccupancy
			s.Standalone.Values = []float64{0.5}
			s.Standalone.Load = math.NaN()
		}, "load"},
		{"+Inf fixed load", func(s *Spec) {
			s.Standalone.Axis = AxisOccupancy
			s.Standalone.Values = []float64{0.5}
			s.Standalone.Load = math.Inf(1)
		}, "finite"},
		{"timing sections on standalone", func(s *Spec) {
			s.Topology = &TopologySpec{Width: 4, Height: 4}
		}, "timing sections"},
	}
	for _, tc := range cases {
		sp := NewSpec(
			WithArbiters("MCM"),
			WithStandaloneSweep(AxisLoadFraction, 0.5),
			WithCycles(100),
		)
		tc.mut(&sp)
		err := sp.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the spec", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestParseSpecStrict(t *testing.T) {
	good, err := EncodeSpec(validTimingSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSpec(good); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}

	unknownField := bytes.Replace(good, []byte(`"version": 1`), []byte(`"version": 1, "bogus": true`), 1)
	if _, err := ParseSpec(unknownField); err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Errorf("unknown field not rejected: %v", err)
	}

	unknownVersion := bytes.Replace(good, []byte(`"version": 1`), []byte(`"version": 99`), 1)
	if _, err := ParseSpec(unknownVersion); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("unknown version not rejected: %v", err)
	}

	trailing := append(append([]byte{}, good...), []byte(`{"version": 1}`)...)
	if _, err := ParseSpec(trailing); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing garbage not rejected: %v", err)
	}

	if _, err := ParseSpec([]byte(`not json`)); err == nil {
		t.Error("non-JSON accepted")
	}
}

// TestReadersRejectTrailingData appends each tail to a valid document
// for every strict JSON reader. A stray closing brace or bracket, which
// json.Decoder.More does not report, and a second value are rejected; a
// whitespace-only tail still parses.
func TestReadersRejectTrailingData(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.json")
	written := func(write func(string) error) []byte {
		if err := write(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	fromFile := func(read func(string) error) func([]byte) error {
		return func(data []byte) error {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return read(path)
		}
	}
	spec, err := EncodeSpec(validTimingSpec())
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{Version: ResultVersion, Spec: validTimingSpec()}
	sc := &MetricsSidecar{Version: MetricsSidecarVersion, Name: "t"}
	readers := []struct {
		name string
		doc  []byte
		read func([]byte) error
	}{
		{"ParseSpec", spec, func(data []byte) error {
			_, err := ParseSpec(data)
			return err
		}},
		{"ParseSpecs", []byte("[" + strings.TrimSpace(string(spec)) + "]"), func(data []byte) error {
			_, err := ParseSpecs(data)
			return err
		}},
		{"ReadResultFile", written(res.WriteFile), fromFile(func(p string) error {
			_, err := ReadResultFile(p)
			return err
		})},
		{"ReadMetricsSidecarFile", written(sc.WriteFile), fromFile(func(p string) error {
			_, err := ReadMetricsSidecarFile(p)
			return err
		})},
	}
	tails := []struct {
		name, tail string
		ok         bool
	}{
		{"stray brace", "}", false},
		{"stray bracket", "]", false},
		{"second value", "{}", false},
		{"whitespace", " \n\t\r\n", true},
	}
	for _, rd := range readers {
		for _, tc := range tails {
			t.Run(rd.name+"/"+tc.name, func(t *testing.T) {
				err := rd.read(append(append([]byte{}, rd.doc...), tc.tail...))
				if tc.ok && err != nil {
					t.Errorf("document with a %s tail rejected: %v", tc.name, err)
				}
				if !tc.ok && err == nil {
					t.Errorf("%q after the document accepted", tc.tail)
				}
			})
		}
	}
}

func TestParseSpecsArray(t *testing.T) {
	a := validTimingSpec()
	b := NewSpec(
		WithArbiters("MCM"),
		WithStandaloneSweep(AxisLoad, 1.0),
		WithCycles(10),
	)
	data, err := EncodeSpecs([]Spec{a, b})
	if err != nil {
		t.Fatal(err)
	}
	specs, err := ParseSpecs(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || !reflect.DeepEqual(specs[0], a) || !reflect.DeepEqual(specs[1], b) {
		t.Errorf("array round-trip lost data: %+v", specs)
	}
	if _, err := ParseSpecs([]byte("[]")); err == nil {
		t.Error("empty spec array accepted")
	}
	// Single-object form also parses through ParseSpecs.
	one, err := EncodeSpecs([]Spec{a})
	if err != nil {
		t.Fatal(err)
	}
	specs, err = ParseSpecs(one)
	if err != nil || len(specs) != 1 {
		t.Fatalf("single-object ParseSpecs = %v, %v", specs, err)
	}
}

func TestSpecFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "specs.json")
	a := validTimingSpec()
	if err := WriteSpecFile(path, a); err != nil {
		t.Fatal(err)
	}
	specs, err := ReadSpecFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || !reflect.DeepEqual(specs[0], a) {
		t.Errorf("file round-trip lost data: %+v", specs)
	}
}

// FuzzSpecParse throws mutated documents at the strict parser: it must
// never panic, and anything it accepts must re-marshal to a canonical
// form that is a fixed point — parsing it and marshaling again yields
// the same bytes. (Struct equality is deliberately not required: JSON
// `[]` decodes to an empty non-nil slice that canonicalizes to absent.)
func FuzzSpecParse(f *testing.F) {
	o := Options{Quick: true, Seed: 1}
	if all, err := FigureSpecs("all", o); err == nil {
		for _, sp := range all {
			if data, err := EncodeSpec(sp); err == nil {
				f.Add(data)
			}
		}
	}
	timing := `{"version":1,"arbiters":["PIM1"],"topology":{"width":4,"height":4},"workload":{"rates":[0.01]},"timing":{"cycles":10}}`
	f.Add([]byte(timing))
	// A stray closing brace or bracket after a valid document, which
	// json.Decoder.More does not report.
	f.Add([]byte(timing + "}"))
	f.Add([]byte(timing + "]"))
	f.Add([]byte(`{"version":1,"mode":"standalone","arbiters":["MCM"],"standalone":{"cycles":5,"axis":"load","values":[1]}}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"version":2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := ParseSpec(data)
		if err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("accepted a document that is not one JSON value: %q", data)
		}
		out, err := EncodeSpec(sp)
		if err != nil {
			t.Fatalf("accepted spec failed to marshal: %v", err)
		}
		again, err := ParseSpec(out)
		if err != nil {
			t.Fatalf("round-tripped spec rejected: %v\n%s", err, out)
		}
		out2, err := EncodeSpec(again)
		if err != nil {
			t.Fatalf("round-tripped spec failed to marshal: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("canonical form is not a fixed point:\nfirst  %s\nsecond %s", out, out2)
		}
	})
}
