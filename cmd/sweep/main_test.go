package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"alpha21364/internal/experiment"
)

// TestProgressGoesToStderrNotStdout pipes a -json -progress run through
// captured buffers and checks the streams never interleave: stdout must
// be pure Result JSONL (every line parses as a typed record), and every
// progress line must be on stderr.
func TestProgressGoesToStderrNotStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-run", "-algo", "SPAA-rotary", "-pattern", "random", "-process", "bernoulli",
		"-rate", "0.02", "-size", "4x4", "-cycles", "400",
		"-json", "-progress", "-workers", "1",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}

	// stdout: strictly machine-readable JSONL.
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("stdout has %d lines, want at least header+series+point:\n%s", len(lines), stdout.String())
	}
	for i, line := range lines {
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatalf("stdout line %d is not JSON (progress leaked into stdout?): %q: %v", i+1, line, err)
		}
		switch probe.Type {
		case "result", "series", "point":
		default:
			t.Fatalf("stdout line %d has unexpected record type %q", i+1, probe.Type)
		}
	}
	// The stream must round-trip through the Result decoder.
	res, err := experiment.DecodeResultJSONL(strings.NewReader(stdout.String()))
	if err != nil {
		t.Fatalf("stdout is not a decodable Result stream: %v", err)
	}
	if len(res.Series) != 1 || len(res.Series[0].Points) != 1 {
		t.Fatalf("decoded result has wrong shape: %d series", len(res.Series))
	}

	// stderr: the progress lines (and only diagnostics) live here.
	if !strings.Contains(stderr.String(), "start ") && !strings.Contains(stderr.String(), "[") {
		t.Fatalf("expected progress lines on stderr, got:\n%s", stderr.String())
	}
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "{") {
			t.Fatalf("JSONL leaked into stderr: %q", line)
		}
	}
}

// TestTableOutputStdoutSeparation covers the default (non-JSON) path:
// tables on stdout, progress on stderr.
func TestTableOutputStdoutSeparation(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-run", "-algo", "PIM1", "-rate", "0.02", "-size", "4x4", "-cycles", "300",
		"-progress", "-workers", "1",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "flits/router/ns") {
		t.Fatalf("stdout missing the run summary:\n%s", stdout.String())
	}
	if strings.Contains(stdout.String(), "sweep:") {
		t.Fatalf("diagnostics leaked into stdout:\n%s", stdout.String())
	}
}

// TestContradictoryFlagsRejected spot-checks the flag contradiction
// rules surface as errors, not silent behavior.
func TestContradictoryFlagsRejected(t *testing.T) {
	cases := [][]string{
		{"-bench", "-figure", "8"},
		{"-bench-baseline", "x.json"},
		{"-emit-spec", "-json"},
		{"-record", "a", "-replay", "b"},
		{"-cache-dir", "d", "-bench"},
		{"-cache-dir", "d", "-record", "a", "-run"},
		{"-resume"},
		{"-torus-shards", "2", "-figure", "8"},
		{"-torus-shards", "2", "-replay", "t.trace"},
		{"-markdown", "-list"},
		{"-metrics", "-quick", "-figure", "8"},
		{"-plot", "-quick", "-figure", "9"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("args %v: expected an error", args)
		}
	}
}

// TestPlotNeedsATimingSpec: -plot with a spec file fails before running
// anything when every spec in it uses the standalone model, which has
// no BNF chart, and plots the timing specs of a mixed file.
func TestPlotNeedsATimingSpec(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, specs ...experiment.Spec) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := experiment.WriteSpecFile(path, specs...); err != nil {
			t.Fatal(err)
		}
		return path
	}
	standalone := experiment.NewSpec(
		experiment.WithArbiters("MCM"),
		experiment.WithStandaloneSweep(experiment.AxisLoad, 0.5),
		experiment.WithCycles(50),
	)
	timing := experiment.NewSpec(
		experiment.WithTopology(4, 4),
		experiment.WithArbiters("PIM1"),
		experiment.WithRates(0.01, 0.02),
		experiment.WithCycles(300),
	)

	var stdout, stderr bytes.Buffer
	err := run([]string{"-spec", write("standalone.json", standalone), "-plot"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "standalone arbiter model") {
		t.Fatalf("-plot on a standalone-only spec file: err=%v, want a standalone-model refusal", err)
	}
	if stdout.Len() != 0 {
		t.Fatalf("the refused run printed:\n%s", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	if err := run([]string{"-spec", write("mixed.json", standalone, timing), "-plot", "-workers", "1"}, &stdout, &stderr); err != nil {
		t.Fatalf("-plot on a mixed spec file: %v\nstderr:\n%s", err, stderr.String())
	}
	if got := strings.Count(stdout.String(), "latency(ns) up to"); got != 1 {
		t.Fatalf("mixed spec file drew %d charts, want 1 (the timing spec's):\n%s", got, stdout.String())
	}
}

// matrixFlagsSpec is the Spec document `-emit-spec -matrix` prints for
// the flags of TestMatrixFlagsSpec, which CI's cached-matrix smoke runs;
// a changed byte changes that run's cache key.
const matrixFlagsSpec = `{
  "version": 1,
  "name": "Scenario matrix",
  "arbiters": [
    "SPAA-rotary",
    "PIM1"
  ],
  "topology": {
    "width": 4,
    "height": 4
  },
  "workload": {
    "patterns": [
      "random"
    ],
    "processes": [
      "bernoulli"
    ],
    "model": "coherence",
    "rates": [
      0.02,
      0.04
    ]
  },
  "timing": {
    "cycles": 2000,
    "seed": 1
  }
}
`

// TestMatrixFlagsSpec pins the Spec the -matrix flags build, byte for
// byte.
func TestMatrixFlagsSpec(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-emit-spec", "-matrix", "-algos", "SPAA-rotary,PIM1", "-patterns", "random",
		"-processes", "bernoulli", "-rates", "0.02,0.04", "-size", "4x4", "-cycles", "2000",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	if got := stdout.String(); got != matrixFlagsSpec {
		t.Fatalf("-emit-spec -matrix printed\n%s\nwant\n%s", got, matrixFlagsSpec)
	}
}

// TestTorusShardsFlagMatchesSerial is the CLI face of the spatial-sharding
// byte-identity contract: the same -run with and without -torus-shards
// must decode to equal Results, down to every point, once the one
// intentional difference — the spec's own torus_shards provenance field —
// is normalized away.
func TestTorusShardsFlagMatchesSerial(t *testing.T) {
	decode := func(extra ...string) *experiment.Result {
		t.Helper()
		args := append([]string{
			"-run", "-algo", "SPAA-rotary", "-pattern", "bit-reversal", "-process", "bernoulli",
			"-rate", "0.04", "-size", "4x4", "-cycles", "400",
			"-json", "-stable", "-workers", "1",
		}, extra...)
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("run %v: %v\nstderr:\n%s", args, err, stderr.String())
		}
		res, err := experiment.DecodeResultJSONL(strings.NewReader(stdout.String()))
		if err != nil {
			t.Fatalf("decode %v: %v", args, err)
		}
		return res
	}
	serial := decode()
	sharded := decode("-torus-shards", "2")
	if sharded.Spec.Timing == nil || sharded.Spec.Timing.TorusShards != 2 {
		t.Fatalf("-torus-shards 2 not stamped into the spec: %+v", sharded.Spec.Timing)
	}
	sharded.Spec.Timing.TorusShards = 0
	if !reflect.DeepEqual(serial, sharded) {
		t.Fatalf("sharded -run diverged from serial:\nserial  %+v\nsharded %+v", serial, sharded)
	}
}

// ruleSamples supplies a parseable value for every flag the rule tables
// mention, so the enumeration tests can set any flag by name.
var ruleSamples = map[string]string{
	"spec": "specs.json", "figure": "8", "matrix": "true", "run": "true",
	"verify": "true", "bench": "true", "quick": "true", "seed": "2",
	"cycles": "100", "size": "4x4", "algo": "PIM1", "algos": "PIM1",
	"pattern": "random", "patterns": "random", "process": "bernoulli",
	"processes": "bernoulli", "model": "coherence", "rate": "0.02",
	"rates": "0.02", "record": "t.trace", "replay": "t.trace",
	"check": "true", "reps": "2", "confidence": "0.9", "emit-spec": "true",
	"json": "true", "workers": "2", "progress": "true", "list": "true",
	"cache-dir": "cachedir", "bench-baseline": "BENCH.json",
	"resume": "true", "metrics": "true", "stable": "true",
	"torus-shards": "2", "markdown": "true", "plot": "true",
}

func sampleArg(t *testing.T, name string) string {
	t.Helper()
	v, ok := ruleSamples[name]
	if !ok {
		t.Fatalf("rule table mentions flag %q with no sample value; add it to ruleSamples", name)
	}
	return "-" + name + "=" + v
}

// TestEveryContradictionRuleRejects enumerates the whole contradiction
// table: each pair, set together (and nothing else), must be rejected
// with an error naming both flags — proving every rule is live, every
// flag it names exists, and no rule is shadowed by another.
func TestEveryContradictionRuleRejects(t *testing.T) {
	for _, c := range contradictions {
		args := []string{sampleArg(t, c.a), sampleArg(t, c.b)}
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		if err == nil {
			t.Errorf("%v: contradiction (%s, %s) not enforced", args, c.a, c.b)
			continue
		}
		msg := err.Error()
		if !strings.Contains(msg, "contradictory") ||
			!strings.Contains(msg, "-"+c.a) || !strings.Contains(msg, "-"+c.b) {
			t.Errorf("%v: error %q does not name the (%s, %s) contradiction", args, msg, c.a, c.b)
		}
	}
}

// TestEveryRequirementRuleRejects enumerates the requirement table: each
// dependent flag, set alone, must be rejected naming its prerequisite.
func TestEveryRequirementRuleRejects(t *testing.T) {
	for _, r := range requirements {
		args := []string{sampleArg(t, r.flag)}
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		if err == nil {
			t.Errorf("%v: requirement %s -> %s not enforced", args, r.flag, r.needs)
			continue
		}
		if !strings.Contains(err.Error(), "requires -"+r.needs) {
			t.Errorf("%v: error %q does not name the missing -%s", args, err.Error(), r.needs)
		}
	}
}

// TestRuleTablesWellFormed rejects degenerate rules: self-pairs,
// duplicate pairs, and empty rationales.
func TestRuleTablesWellFormed(t *testing.T) {
	seen := map[[2]string]bool{}
	for _, c := range contradictions {
		if c.a == c.b {
			t.Errorf("rule pairs %q with itself", c.a)
		}
		if c.why == "" {
			t.Errorf("rule (%s, %s) has no rationale", c.a, c.b)
		}
		k := [2]string{c.a, c.b}
		if c.a > c.b {
			k = [2]string{c.b, c.a}
		}
		if seen[k] {
			t.Errorf("rule (%s, %s) appears twice", c.a, c.b)
		}
		seen[k] = true
	}
	for _, r := range requirements {
		if r.flag == r.needs || r.why == "" {
			t.Errorf("malformed requirement %+v", r)
		}
	}
}

// TestCachedMatrixSecondRunSimulatesNothing is the CLI face of the cache
// contract: the same -matrix invocation twice against one -cache-dir
// must simulate zero points the second time and emit identical bytes.
// -stable is the supported normalization: it zeroes the wall-clock
// field at the source, so the streams compare with plain equality.
func TestCachedMatrixSecondRunSimulatesNothing(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-matrix", "-algos", "PIM1", "-patterns", "random", "-processes", "bernoulli",
		"-rates", "0.02,0.04", "-size", "4x4", "-cycles", "300",
		"-json", "-stable", "-cache-dir", filepath.Join(dir, "cache"),
	}
	var out1, err1, out2, err2 bytes.Buffer
	if err := run(args, &out1, &err1); err != nil {
		t.Fatalf("cold run: %v\nstderr:\n%s", err, err1.String())
	}
	if !strings.Contains(err1.String(), "0/2 points cached, 2 simulated") {
		t.Fatalf("cold run stats missing or wrong:\n%s", err1.String())
	}
	if err := run(args, &out2, &err2); err != nil {
		t.Fatalf("warm run: %v\nstderr:\n%s", err, err2.String())
	}
	if !strings.Contains(err2.String(), "2/2 points cached, 0 simulated") {
		t.Fatalf("warm run still simulated:\n%s", err2.String())
	}
	if out1.String() != out2.String() {
		t.Fatalf("cached -stable run output diverged:\n--- cold ---\n%s\n--- warm ---\n%s", out1.String(), out2.String())
	}
	// ElapsedNS is omitempty: stripping it means the key disappears.
	if strings.Contains(out1.String(), `"elapsed_ns"`) {
		t.Fatalf("-stable did not strip elapsed_ns:\n%s", out1.String())
	}
}

// TestSpecFileArrayCachedRerun runs a two-Spec array file twice
// against one -cache-dir: the Results stream in file order, and the
// second run simulates nothing and emits the same bytes.
func TestSpecFileArrayCachedRerun(t *testing.T) {
	dir := t.TempDir()
	spec := func(name, arbiter string) experiment.Spec {
		return experiment.NewSpec(
			experiment.WithName(name),
			experiment.WithTopology(4, 4),
			experiment.WithArbiters(arbiter),
			experiment.WithPatterns("random"),
			experiment.WithRates(0.02),
			experiment.WithCycles(300),
			experiment.WithSeed(3),
		)
	}
	data, err := experiment.EncodeSpecs([]experiment.Spec{spec("first spec", "PIM1"), spec("second spec", "SPAA-rotary")})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "specs.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-spec", path, "-cache-dir", filepath.Join(dir, "cache"), "-json", "-stable", "-workers", "1"}
	var out1, err1, out2, err2 bytes.Buffer
	if err := run(args, &out1, &err1); err != nil {
		t.Fatalf("cold run: %v\nstderr:\n%s", err, err1.String())
	}
	var names []string
	for _, line := range strings.Split(strings.TrimRight(out1.String(), "\n"), "\n") {
		var rec struct {
			Type string
			Spec struct{ Name string }
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("stdout line is not JSON: %q: %v", line, err)
		}
		if rec.Type == "result" {
			names = append(names, rec.Spec.Name)
		}
	}
	if want := []string{"first spec", "second spec"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("result headers = %q, want %q in file order", names, want)
	}
	if err := run(args, &out2, &err2); err != nil {
		t.Fatalf("warm run: %v\nstderr:\n%s", err, err2.String())
	}
	if got := strings.Count(err2.String(), "1/1 points cached, 0 simulated"); got != 2 {
		t.Fatalf("warm run: %d of 2 specs served wholly from the cache:\n%s", got, err2.String())
	}
	if out1.String() != out2.String() {
		t.Fatalf("cached -spec rerun output diverged:\n--- cold ---\n%s\n--- warm ---\n%s", out1.String(), out2.String())
	}
}

// TestMetricsFlagEmitsSnapshotsAndSidecar is the CLI face of the
// telemetry layer: -metrics makes every emitted point carry a snapshot,
// and with -out a loadable <name>.metrics.json sidecar appears.
func TestMetricsFlagEmitsSnapshotsAndSidecar(t *testing.T) {
	outDir := t.TempDir()
	args := []string{
		"-matrix", "-algos", "PIM1", "-patterns", "random", "-processes", "bernoulli",
		"-rates", "0.02", "-size", "4x4", "-cycles", "300",
		"-json", "-stable", "-metrics", "-out", outDir,
	}
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), `"metrics":{"version":1`) {
		t.Fatalf("-metrics stream carries no snapshots:\n%s", stdout.String())
	}
	sidecar := filepath.Join(outDir, "scenario-matrix.metrics.json")
	sc, err := experiment.ReadMetricsSidecarFile(sidecar)
	if err != nil {
		t.Fatalf("sidecar: %v", err)
	}
	if len(sc.Points) != 1 || sc.Points[0].Metrics == nil {
		t.Fatalf("sidecar has %d point(s), want 1 with a snapshot", len(sc.Points))
	}
	if sc.Points[0].Metrics.Arbiter != "PIM1" {
		t.Errorf("sidecar snapshot arbiter = %q, want PIM1", sc.Points[0].Metrics.Arbiter)
	}

	// Without -metrics, no snapshot key and no sidecar.
	bareDir := t.TempDir()
	bareArgs := []string{
		"-matrix", "-algos", "PIM1", "-patterns", "random", "-processes", "bernoulli",
		"-rates", "0.02", "-size", "4x4", "-cycles", "300",
		"-json", "-out", bareDir,
	}
	stdout.Reset()
	stderr.Reset()
	if err := run(bareArgs, &stdout, &stderr); err != nil {
		t.Fatalf("bare run: %v\nstderr:\n%s", err, stderr.String())
	}
	if strings.Contains(stdout.String(), `"metrics"`) {
		t.Fatalf("bare run emitted a metrics key:\n%s", stdout.String())
	}
	if _, err := experiment.ReadMetricsSidecarFile(filepath.Join(bareDir, "scenario-matrix.metrics.json")); err == nil {
		t.Error("bare run wrote a metrics sidecar")
	}
}

// TestResumeFlagContract checks both sides of -resume: against an empty
// cache it refuses to start, and against a populated one it proceeds as
// a pure cache read.
func TestResumeFlagContract(t *testing.T) {
	cacheArg := filepath.Join(t.TempDir(), "cache")
	base := []string{
		"-matrix", "-algos", "PIM1", "-patterns", "random", "-processes", "bernoulli",
		"-rates", "0.02", "-size", "4x4", "-cycles", "300", "-json", "-cache-dir", cacheArg,
	}
	var stdout, stderr bytes.Buffer
	err := run(append([]string{"-resume"}, base...), &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "no completed points") {
		t.Fatalf("resume against an empty cache: err=%v, want a 'no completed points' refusal", err)
	}
	stdout.Reset()
	stderr.Reset()
	if err := run(base, &stdout, &stderr); err != nil {
		t.Fatalf("seed run: %v\nstderr:\n%s", err, stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if err := run(append([]string{"-resume"}, base...), &stdout, &stderr); err != nil {
		t.Fatalf("resume after seed run: %v\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "resume: 1 completed point(s) already cached") {
		t.Fatalf("resume preamble missing:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "0 simulated") {
		t.Fatalf("resumed run re-simulated cached points:\n%s", stderr.String())
	}
}

// TestBenchWritesReport runs the bench suite into a temp dir and
// validates the BENCH_*.json schema, plus the baseline comparison paths.
func TestBenchWritesReport(t *testing.T) {
	if testing.Short() {
		t.Skip("bench suite is seconds-long; skipped in -short")
	}
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-bench", "-out", dir}, &stdout, &stderr); err != nil {
		t.Fatalf("bench: %v\nstderr:\n%s", err, stderr.String())
	}
	rep, err := experiment.ReadBenchFile(fmt.Sprintf("%s/BENCH_%d.json", dir, experiment.BenchVersion))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) == 0 || rep.CalibrationNS <= 0 {
		t.Fatalf("bench report malformed: %+v", rep)
	}
	for _, e := range rep.Entries {
		if e.NSPerSimCycle <= 0 || e.SimCycles <= 0 {
			t.Fatalf("bench entry %s has empty measurements: %+v", e.Name, e)
		}
	}
	// Comparing a report against itself must pass the gate...
	if regs := rep.Compare(rep, 0.15); len(regs) != 0 {
		t.Fatalf("self-comparison reported regressions: %v", regs)
	}
	// ...and a doctored 2x-faster baseline must fail it.
	faster := *rep
	faster.Entries = append([]experiment.BenchEntryResult(nil), rep.Entries...)
	for i := range faster.Entries {
		faster.Entries[i].NSPerSimCycle /= 2
	}
	if regs := rep.Compare(&faster, 0.15); len(regs) == 0 {
		t.Fatal("2x regression not detected against doctored baseline")
	}
}
