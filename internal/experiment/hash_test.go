package experiment

// hash_test.go pins the cache-key contract three ways: the hash ignores
// JSON field order (content addressing, not byte addressing), ignores
// execution knobs (Name/Check/RecordTo, and nothing else), and matches a
// golden value for every canned figure Spec — so accidental cache-key
// drift (a renamed field, a new always-emitted field, a changed figure
// definition) fails CI instead of silently orphaning existing caches.

import (
	"strings"
	"testing"
)

func mustHash(t *testing.T, sp Spec) string {
	t.Helper()
	h, err := SpecHash(sp)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func hashTestSpec() Spec {
	return NewSpec(
		WithName("hash probe"),
		WithTopology(4, 4),
		WithArbiters("SPAA-rotary", "PIM1"),
		WithPatterns("random", "tornado"),
		WithProcesses("bernoulli"),
		WithRates(0.02, 0.05),
		WithCycles(900),
		WithSeed(11),
	)
}

// TestSpecHashFieldOrderIndependent parses the same document with its
// top-level and nested fields in two different orders; the hashes must
// agree, because the hash addresses the canonical form, not the input
// bytes.
func TestSpecHashFieldOrderIndependent(t *testing.T) {
	a := `{
  "version": 1,
  "arbiters": ["SPAA-rotary"],
  "topology": {"width": 4, "height": 4},
  "workload": {"patterns": ["random"], "rates": [0.02]},
  "timing": {"cycles": 500, "seed": 3}
}`
	b := `{
  "timing": {"seed": 3, "cycles": 500},
  "workload": {"rates": [0.02], "patterns": ["random"]},
  "topology": {"height": 4, "width": 4},
  "arbiters": ["SPAA-rotary"],
  "version": 1
}`
	sa, err := ParseSpec([]byte(a))
	if err != nil {
		t.Fatal(err)
	}
	sb, err := ParseSpec([]byte(b))
	if err != nil {
		t.Fatal(err)
	}
	if ha, hb := mustHash(t, sa), mustHash(t, sb); ha != hb {
		t.Fatalf("field order changed the hash: %s != %s", ha, hb)
	}
}

// TestSpecHashIgnoresExecutionKnobs flips each excluded knob and checks
// invariance — and flips semantic fields to check they DO change the
// hash, so the exclusion list cannot quietly grow.
func TestSpecHashIgnoresExecutionKnobs(t *testing.T) {
	base := mustHash(t, hashTestSpec())

	invariant := map[string]func(*Spec){
		"name":    func(s *Spec) { s.Name = "completely different title" },
		"check":   func(s *Spec) { s.Check = true },
		"no name": func(s *Spec) { s.Name = "" },
	}
	for what, mutate := range invariant {
		sp := hashTestSpec()
		mutate(&sp)
		if h := mustHash(t, sp); h != base {
			t.Errorf("%s changed the hash: %s != %s (execution knobs must not key the cache)", what, h, base)
		}
	}

	semantic := map[string]func(*Spec){
		"seed":         func(s *Spec) { s.Timing.Seed = 12 },
		"cycles":       func(s *Spec) { s.Timing.Cycles = 901 },
		"rates":        func(s *Spec) { s.Workload.Rates = []float64{0.02, 0.051} },
		"arbiters":     func(s *Spec) { s.Arbiters = []string{"SPAA-rotary", "WFA-base"} },
		"patterns":     func(s *Spec) { s.Workload.Patterns = []string{"random"} },
		"topology":     func(s *Spec) { s.Topology.Width = 8 },
		"replications": func(s *Spec) { s.Replications = 3 },
		"warmup":       func(s *Spec) { s.Timing.WarmupFraction = NoWarmup },
		"outstanding":  func(s *Spec) { s.Workload.MaxOutstanding = 64 },
	}
	for what, mutate := range semantic {
		sp := hashTestSpec()
		mutate(&sp)
		if h := mustHash(t, sp); h == base {
			t.Errorf("changing %s did NOT change the hash (a semantic field is excluded from the key)", what)
		}
	}
}

// TestSpecHashRecordToExcluded checks the one workload-level knob: a
// record_to path is a side-effect destination, not an input.
func TestSpecHashRecordToExcluded(t *testing.T) {
	sp := NewSpec(
		WithName("record probe"),
		WithTopology(4, 4),
		WithArbiters("PIM1"),
		WithPatterns("random"),
		WithRates(0.02),
		WithCycles(500),
		WithSeed(2),
	)
	base := mustHash(t, sp)
	rec := sp
	w := *sp.Workload
	w.RecordTo = "/tmp/trace.bin"
	rec.Workload = &w
	if h := mustHash(t, rec); h != base {
		t.Fatalf("record_to changed the hash: %s != %s", h, base)
	}
	// replay_from, by contrast, IS semantic (it replaces the whole
	// injection stream) — but replay specs never reach the cache; the
	// Runner refuses to cache them (see specCacheable).
}

func TestSpecHashRejectsInvalidSpec(t *testing.T) {
	if _, err := SpecHash(Spec{}); err == nil {
		t.Fatal("SpecHash accepted the zero Spec")
	}
}

// goldenFigureHashes pins the cache key of every canned figure Spec
// (Options zero value: full fidelity, seed 1). A mismatch means the
// canonical semantic form drifted and every existing cache would be
// orphaned — if the change is intentional (schema evolution, new figure
// definition), update the golden and say so in the PR.
var goldenFigureHashes = map[string][]string{
	"8": {"b620f22bb25a0633131a55c3be0efefbc96c6cdf35d60b7e2ce0a3ce1de549f7"},
	"9": {"3120544288ddbbb2d553c61527a9aaebce3f0186e8d46b745f5a38232c1a4050"},
	"10": {
		"41156d30e7f13fb2d559c16503c56a76b987629d78f411c15d270ee8436e3a0b",
		"bac6399d476aabd7072df7288c88af79cf2d8611b218407d59942a728f614254",
		"1810865a5510b3cd8246e05192ccfba366c368876780c8d0d0cc3bf3f08c585f",
		"df568e6b51f6973f946c687734b8242aa37c987ad8bfaaa2b12709428933e15f",
	},
	"10s": {"bfc59dee60fd29c158220e4241926741e7a792193b9dcc0b03b4b428e20c87a3"},
	"11a": {"b94c26216eb94d262a5a57c97314ba23a71a954ed7992d99e90b5e5ac2a07d74"},
	"11b": {"e433f19baef050a0b2059d4dfc1009458746b7b5b42ca686e9ca492844f4fba4"},
	"11c": {"ce26d3225cd42c63c1927815001d70acf2b9c7cd877b59099ca966eeaf63c5d4"},
}

func TestSpecHashGoldenFigures(t *testing.T) {
	for _, name := range FigureSpecNames() {
		specs, err := FigureSpecs(name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, ok := goldenFigureHashes[name]
		if !ok {
			t.Errorf("figure %s has no golden hash; add it", name)
			continue
		}
		if len(specs) != len(want) {
			t.Errorf("figure %s has %d specs, golden has %d", name, len(specs), len(want))
			continue
		}
		for i, sp := range specs {
			if h := mustHash(t, sp); h != want[i] {
				t.Errorf("figure %s panel %d (%s): hash drifted\n  got  %s\n  want %s\n"+
					"existing caches would be orphaned; update the golden only if the drift is intentional",
					name, i, sp.Name, h, want[i])
			}
		}
	}
	for name := range goldenFigureHashes {
		if !strings.Contains(strings.Join(FigureSpecNames(), ","), name) {
			t.Errorf("golden hash for unknown figure %q", name)
		}
	}
}
