package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"alpha21364/internal/experiment"
)

// TestProgressGoesToStderrNotStdout pipes a -json -progress run through
// captured buffers and checks the streams never interleave: stdout must
// be the Result alone, one JSON line, and every progress line must be on
// stderr.
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

	// stdout: one Result line, which the strict decoder reads whole.
	if n := strings.Count(stdout.String(), "\n"); n != 1 {
		t.Fatalf("stdout has %d lines, want the one Result line:\n%s", n, stdout.String())
	}
	res, err := experiment.DecodeResultJSONL(strings.NewReader(stdout.String()))
	if err != nil {
		t.Fatalf("stdout is not a Result line (progress leaked into stdout?): %v", err)
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
			t.Fatalf("the Result leaked into stderr: %q", line)
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

// TestContradictoryFlagsRejected spot-checks that rejected flag sets
// surface as errors, not silent behavior: a rejected invocation prints
// nothing and writes no -out directory. -list takes no flag but the
// profilers', and -emit-spec, which runs nothing, takes no execution
// flag.
func TestContradictoryFlagsRejected(t *testing.T) {
	outDir := filepath.Join(t.TempDir(), "out")
	cases := [][]string{
		{"-bench", "-figure", "8"},
		{"-bench-baseline", "x.json"},
		{"-emit-spec", "-json"},
		{"-record", "a", "-replay", "b"},
		{"-cache-dir", "d", "-bench"},
		{"-cache-dir", "d", "-record", "a", "-run"},
		{"-resume"},
		{"-markdown", "-list"},
		{"-metrics", "-quick", "-figure", "8"},
		{"-plot", "-quick", "-figure", "9"},
		{"-list", "-quick", "-seed", "3"},
		{"-list", "-figure", "9", "-check"},
		{"-emit-spec", "-figure", "8", "-workers", "3", "-progress", "-out", outDir},
		{"-emit-spec", "-progress"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("args %v: expected an error", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("args %v: the rejected invocation printed:\n%s", args, stdout.String())
		}
	}
	if _, err := os.Stat(outDir); !os.IsNotExist(err) {
		t.Errorf("a rejected invocation created its -out directory (stat: %v)", err)
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

// TestFigureModeOutputs pins figure mode's output names, one per canned
// Spec in -figure all order, and runs figure 9 into its two files.
func TestFigureModeOutputs(t *testing.T) {
	if _, files, err := figureSpecs("all", true, nil); err != nil || !reflect.DeepEqual(files, []string{
		"figure8", "figure9", "figure10-4x4-random-traffic", "figure10-8x8-random-traffic", "figure10-8x8-bit-reversal",
		"figure10-8x8-perfect-shuffle", "figure10s", "figure11a", "figure11b", "figure11c"}) {
		t.Errorf("output names = %q (err %v)", files, err)
	}
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-quick", "-figure", "9", "-workers", "1", "-out", dir}, &stdout, &stderr); err != nil {
		t.Fatalf("figure mode: %v\nstderr:\n%s", err, stderr.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 2 || entries[0].Name() != "figure9.csv" || entries[1].Name() != "figure9.jsonl" {
		t.Errorf("-out holds %v (err %v), want figure9.csv and figure9.jsonl", entries, err)
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

// TestEmitSpecHashes pins the sha256 of the Specs figure, matrix and run
// mode print, with and without the study flags (-seed -check -metrics
// -reps -confidence). A changed hash changes the cache key of every run
// of that invocation. -reps 1 and -seed 0 print the bytes of leaving the
// flag unset and of -seed 1.
func TestEmitSpecHashes(t *testing.T) {
	for _, tc := range []struct{ args, sha string }{
		{"-figure all", "8ede9232bb4541367fa95ba7373af3baef88ca541023811e157c6985b80cb745"},
		{"-quick -figure all", "fb0407d7a3250443396cf5cccae8fd2828ba8be2101b950291852e305820356c"},
		{"-quick -figure all -seed 7 -check -metrics -reps 3 -confidence 0.9", "6418457c17f23a1234f51138f46ea44238a4982dc03400bc32e62ade99322828"},
		{"-figure 8 -seed 7 -check -reps 2", "e2df83c9a8f4fada037b69d61f8c5c1072f397d35bd96b3f99100ccdc7d0f573"},
		{"-quick -figure 10 -reps 1", "4212687b3e99f3db5b35ff336ab2e3abe9551d0e553e1bf8eff147d3a983eae5"},
		{"-quick -figure 10", "4212687b3e99f3db5b35ff336ab2e3abe9551d0e553e1bf8eff147d3a983eae5"},
		{"-matrix", "2b7ee4c7df20d29fdc18f3cfe43229e700a6cd3baedbcd3da7f2924305933f1a"},
		{"-matrix -size 4x4 -seed 3 -check -metrics -reps 2 -confidence 0.9", "9e3f9fdcbc3099b5ed2f0ff5cdf9298d495ad8e578d3078c020d8c0bfed4d42c"},
		{"-run", "24126b38a13068417d2a7986d11ce6de83dcc4f6d726adf291995d57ec2f30e5"},
		{"-run -size 4x4 -seed 3 -check -metrics -reps 2", "d7cb03259e10464f9e60c2f25b924b0089bc904a7f3e797f7f36d060cc6427be"},
		{"-run -size 4x4 -seed 1", "ef5a76cee1d0e1bc4487ef9e70a365c31ffa4e46bcdf0c50533406eb488faadb"},
		{"-run -size 4x4 -seed 0", "ef5a76cee1d0e1bc4487ef9e70a365c31ffa4e46bcdf0c50533406eb488faadb"},
		{"-matrix -size 4x4 -seed 1", "0e6e586fa1ec959ac93fa9bd367d7fc227348a5fe9b22d10d2610fe02a849e55"},
		{"-matrix -size 4x4 -seed 0", "0e6e586fa1ec959ac93fa9bd367d7fc227348a5fe9b22d10d2610fe02a849e55"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(append([]string{"-emit-spec"}, strings.Fields(tc.args)...), &stdout, &stderr); err != nil {
			t.Errorf("-emit-spec %s: %v\nstderr:\n%s", tc.args, err, stderr.String())
			continue
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(stdout.Bytes())); got != tc.sha {
			t.Errorf("-emit-spec %s: stdout sha256 %s, want %s", tc.args, got, tc.sha)
		}
	}
}

// TestStudyOptionsValidated checks that every mode validates its Specs
// after the study options are applied: an invalid -confidence fails
// before -emit-spec prints anything and before a simulation starts.
func TestStudyOptionsValidated(t *testing.T) {
	for _, args := range []string{
		"-emit-spec -quick -figure 10s -reps 3 -confidence 2",
		"-quick -figure 10s -reps 3 -confidence 2 -workers 1",
		"-emit-spec -matrix -size 4x4 -reps 3 -confidence 2",
		"-emit-spec -run -size 4x4 -reps 3 -confidence 2",
	} {
		var stdout, stderr bytes.Buffer
		err := run(strings.Fields(args), &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "confidence 2 must be within (0, 1)") {
			t.Errorf("%s: err = %v, want the confidence range error", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: printed %d bytes on stdout, want none", args, stdout.Len())
		}
	}
}

// flagSamples supplies a parseable value for every flag sweep defines,
// so the flag-checking tests can set any flag by name.
var flagSamples = map[string]string{
	"spec": "specs.json", "figure": "11c", "matrix": "true", "run": "true",
	"verify": "true", "bench": "true", "quick": "true", "seed": "2",
	"cycles": "100", "size": "4x4", "algo": "PIM1", "algos": "PIM1",
	"pattern": "random", "patterns": "random", "process": "bernoulli",
	"processes": "bernoulli", "model": "coherence", "rate": "0.02",
	"rates": "0.02", "record": "t.trace", "replay": "t.trace",
	"check": "true", "reps": "2", "confidence": "0.9", "emit-spec": "true",
	"json": "true", "workers": "2", "progress": "true", "list": "true",
	"cache-dir": "cachedir", "bench-baseline": "BENCH.json",
	"resume": "true", "metrics": "true",
	"markdown": "true", "plot": "true", "out": "outdir",
}

func sampleArg(t *testing.T, name string) string {
	t.Helper()
	v, ok := flagSamples[name]
	if !ok {
		t.Fatalf("flag %q has no sample value; add it to flagSamples", name)
	}
	return "-" + name + "=" + v
}

// names reports whether err names the flag -f as a whole word.
func names(err error, f string) bool {
	return regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(f) + `([^\w-]|$)`).MatchString(err.Error())
}

// usageFlags returns every flag the usage text lists but the profilers,
// which every mode takes.
func usageFlags(t *testing.T) []string {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-h"}, &stdout, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v", err)
	}
	var flags []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(stderr.String(), -1) {
		if m[1] != "cpuprofile" && m[1] != "memprofile" {
			flags = append(flags, m[1])
		}
	}
	if len(flags) < 30 {
		t.Fatalf("read %d flags from the usage text:\n%s", len(flags), stderr.String())
	}
	return flags
}

// flagChecker returns a function that runs args and returns the error
// flag checking raised, or nil when the invocation got past it. It adds
// an unwritable -cpuprofile, which fails every invocation that gets past
// flag checking before it simulates anything, so no case runs, and it
// requires every invocation to print nothing.
func flagChecker(t *testing.T) func(args []string) error {
	noProfile := "-cpuprofile=" + filepath.Join(t.TempDir(), "missing", "cpu.pprof")
	return func(args []string) error {
		var stdout, stderr bytes.Buffer
		err := run(append(slices.Clone(args), noProfile), &stdout, &stderr)
		if err == nil || stdout.Len() != 0 {
			t.Fatalf("%v: err = %v, stdout:\n%s", args, err, stdout.String())
		}
		if strings.Contains(err.Error(), "cpu.pprof") {
			return nil
		}
		return err
	}
}

// needs holds what a flag cannot be set without, in every row that lists
// it.
var needs = map[string]string{"confidence": "-reps=2", "resume": "-cache-dir=cachedir"}

// rowOf returns a mode's row: its selectors, then the flags it reads.
func rowOf(m mode) []string { return strings.Fields(m.selectors + " " + m.reads) }

// checkRow checks mode m, and m again with -emit-spec when its row lists
// it, against every usage flag: a flag is accepted exactly when the row
// lists it and -emit-spec does not turn it off, and a rejection names the
// flag.
func checkRow(t *testing.T, check func([]string) error, flags []string, m mode) {
	row := rowOf(m)
	for _, emit := range []bool{false, true} {
		base, off := []string{sampleArg(t, row[0])}, []string(nil)
		if emit {
			if !slices.Contains(row, "emit-spec") {
				continue
			}
			base, off = append(base, "-emit-spec"), strings.Fields(execFlags+" plot")
		}
		for _, f := range flags {
			if f == row[0] || emit && f == "emit-spec" {
				continue
			}
			want := slices.Contains(row, f) && !slices.Contains(off, f)
			args := append(slices.Clone(base), sampleArg(t, f))
			if n, ok := needs[f]; ok && want {
				args = append(args, n)
			}
			switch err := check(args); {
			case want && err != nil:
				t.Errorf("%v: %v, want it accepted", args, err)
			case !want && (err == nil || !names(err, f)):
				t.Errorf("%v: err = %v, want an error naming -%s", args, err, f)
			}
		}
	}
}

// A flagCase is an invocation flag checking must reject, and the flag
// its error must name.
type flagCase struct {
	args []string
	flag string
}

// checkCases requires each case to fail flag checking naming its flag.
func checkCases(t *testing.T, check func([]string) error, cases []flagCase) {
	for _, c := range cases {
		if err := check(c.args); err == nil || !names(err, c.flag) {
			t.Errorf("args %v: err = %v, want an error naming -%s", c.args, err, c.flag)
		}
	}
}

// TestListTakesNoFlag requires -list to reject every flag the usage text
// lists but the profilers', naming it, so a flag added later never
// reaches -list unread; -list with -cpuprofile runs.
func TestListTakesNoFlag(t *testing.T) {
	list := modes[slices.IndexFunc(modes, func(m mode) bool { return m.name == "list" })]
	if list.reads != "" {
		t.Errorf("list mode reads %q, want no flag", list.reads)
	}
	checkRow(t, flagChecker(t), usageFlags(t), list)

	var stdout, stderr bytes.Buffer
	err := run([]string{"-list", "-cpuprofile", filepath.Join(t.TempDir(), "cpu.pprof")}, &stdout, &stderr)
	if err != nil || !strings.Contains(stdout.String(), "algorithms:") {
		t.Errorf("-list -cpuprofile: err = %v, stdout:\n%s", err, stdout.String())
	}
}

// TestIgnoredFlagsRejected checks every other mode's row against every
// usage flag (checkRow), so no mode silently drops a flag: a matrix axis
// flag beside the -run that -record or -replay selects is rejected too.
// The value rules reject a negative -reps or -cycles, and the scenario
// flags reach -matrix and -run, including the -run that -record selects.
// -seed 0 means seed 1, as in a Spec, so it is accepted.
func TestIgnoredFlagsRejected(t *testing.T) {
	check, flags := flagChecker(t), usageFlags(t)
	for _, m := range modes {
		if m.name != "list" {
			checkRow(t, check, flags, m)
		}
	}
	checkCases(t, check, []flagCase{
		{[]string{"-record=t.trace", "-algos=PIM1"}, "algos"},
		{[]string{"-replay=t.trace", "-rates=0.02,0.04"}, "rates"},
		{[]string{"-emit-spec", "-record=t.trace", "-patterns=tornado"}, "patterns"},
		{[]string{"-emit-spec", "-figure=11c", "-quick", "-reps=-3"}, "reps"},
		{[]string{"-run", "-size=4x4", "-cycles=-5"}, "cycles"},
	})
	for _, args := range [][]string{
		{"-emit-spec", "-matrix", "-size", "4x4", "-cycles", "100", "-rates", "0.02"},
		{"-emit-spec", "-run", "-size", "4x4", "-algo", "PIM1", "-rate", "0.02"},
		{"-emit-spec", "-record", "run.trace", "-size", "4x4", "-pattern", "tornado"},
		{"-emit-spec", "-figure=11c", "-quick", "-seed=0"},
		{"-emit-spec", "-run", "-size=4x4", "-seed=0"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Errorf("args %v: %v", args, err)
		}
	}
}

// TestEveryContradictionRuleRejects sets both flags of each pair rule,
// listed here so a rule dropped from pairRules fails too, and requires an
// error naming both; each standalone figure with -metrics or -plot must
// fail naming that flag.
func TestEveryContradictionRuleRejects(t *testing.T) {
	check := flagChecker(t)
	for _, p := range [][2]string{
		{"record", "replay"}, {"replay", "pattern"}, {"replay", "process"}, {"replay", "rate"},
		{"replay", "model"}, {"cache-dir", "record"}, {"cache-dir", "replay"}, {"record", "reps"},
		{"plot", "json"},
	} {
		args := []string{sampleArg(t, p[0]), sampleArg(t, p[1])}
		if err := check(args); err == nil || !names(err, p[0]) || !names(err, p[1]) {
			t.Errorf("%v: err = %v, want an error naming -%s and -%s", args, err, p[0], p[1])
		}
	}
	checkCases(t, check, []flagCase{{[]string{"-figure=8", "-metrics"}, "metrics"}, {[]string{"-figure=9", "-plot"}, "plot"}})
}

// TestEveryRequirementRuleRejects sets each flag of needs without what it
// needs, in every mode whose row lists it, and requires an error naming
// the missing flag; -markdown and -bench-baseline fail outside -verify and
// -bench.
func TestEveryRequirementRuleRejects(t *testing.T) {
	cases := []flagCase{
		{[]string{"-markdown"}, "markdown"},
		{[]string{"-bench-baseline=BENCH.json"}, "bench-baseline"},
		{[]string{"-verify", "-reps=1", "-confidence=0.9"}, "reps"},
	}
	for f, n := range needs {
		for _, m := range modes {
			if row := rowOf(m); slices.Contains(row, f) {
				need := strings.TrimPrefix(strings.SplitN(n, "=", 2)[0], "-")
				cases = append(cases, flagCase{[]string{sampleArg(t, row[0]), sampleArg(t, f)}, need})
			}
		}
	}
	checkCases(t, flagChecker(t), cases)
}

// TestRuleTablesWellFormed checks the flag tables against the usage text:
// every flag sits in some mode's row, so a flag added later needs a row
// entry (and a flagSamples value), and every row names defined flags.
// Every pair rule has a rationale and pairs two flags of one row, since a
// pair no row holds is rejected before the rule is read.
func TestRuleTablesWellFormed(t *testing.T) {
	flags := usageFlags(t)
	inRow := func(fs ...string) bool {
		return slices.ContainsFunc(modes, func(m mode) bool {
			row := rowOf(m)
			for _, f := range fs {
				if !slices.Contains(row, f) {
					return false
				}
			}
			return true
		})
	}
	for _, f := range flags {
		if !inRow(f) {
			t.Errorf("-%s is in no mode's row", f)
		}
	}
	for _, m := range modes {
		for _, f := range rowOf(m) {
			if !slices.Contains(flags, f) {
				t.Errorf("%s mode reads -%s, which sweep does not define", m.name, f)
			}
		}
	}
	for _, r := range pairRules {
		for _, f := range strings.Fields(r.with) {
			if r.why == "" || r.flag == f || !inRow(r.flag, f) {
				t.Errorf("malformed pair rule (-%s, -%s)", r.flag, f)
			}
		}
	}
}

// TestCachedMatrixSecondRunSimulatesNothing is the CLI face of the cache
// contract: the same -matrix invocation twice against one -cache-dir
// must simulate zero points the second time and print identical bytes.
// A Result holds no wall-clock field, so the raw outputs are compared.
func TestCachedMatrixSecondRunSimulatesNothing(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-matrix", "-algos", "PIM1", "-patterns", "random", "-processes", "bernoulli",
		"-rates", "0.02,0.04", "-size", "4x4", "-cycles", "300",
		"-json", "-cache-dir", filepath.Join(dir, "cache"),
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
		t.Fatalf("cached run output diverged:\n--- cold ---\n%s\n--- warm ---\n%s", out1.String(), out2.String())
	}
}

// writeSpecArray writes a file of two timing Specs, PIM1's and
// SPAA-rotary's, and returns its path and the Specs.
func writeSpecArray(t *testing.T, dir string) (string, []experiment.Spec) {
	t.Helper()
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
	specs := []experiment.Spec{spec("first spec", "PIM1"), spec("second spec", "SPAA-rotary")}
	path := filepath.Join(dir, "specs.json")
	if err := experiment.WriteSpecFile(path, specs...); err != nil {
		t.Fatal(err)
	}
	return path, specs
}

// TestSpecFileArrayJSONOneLinePerSpec runs a two-Spec array file with
// -json: stdout holds exactly two lines, in file order, and each is the
// Result line of its own Spec, which the strict decoder reads.
func TestSpecFileArrayJSONOneLinePerSpec(t *testing.T) {
	path, specs := writeSpecArray(t, t.TempDir())
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-spec", path, "-json", "-workers", "1"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	lines := strings.SplitAfter(stdout.String(), "\n")
	if len(lines) != len(specs)+1 || lines[len(specs)] != "" {
		t.Fatalf("stdout has %d lines, want one per Spec (%d):\n%s", len(lines)-1, len(specs), stdout.String())
	}
	for i, sp := range specs {
		res, err := experiment.DecodeResultJSONL(strings.NewReader(lines[i]))
		if err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		if res.Spec.Name != sp.Name {
			t.Fatalf("line %d holds %q's Result, want %q's", i+1, res.Spec.Name, sp.Name)
		}
		want, err := experiment.NewRunner(experiment.WithWorkers(1)).Run(context.Background(), res.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("line %d is not its Spec's Result:\ngot  %+v\nwant %+v", i+1, res, want)
		}
	}
}

// TestSpecFileArrayCachedRerun runs a two-Spec array file twice
// against one -cache-dir: the second run simulates nothing and prints
// the same bytes.
func TestSpecFileArrayCachedRerun(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeSpecArray(t, dir)
	args := []string{"-spec", path, "-cache-dir", filepath.Join(dir, "cache"), "-json", "-workers", "1"}
	var out1, err1, out2, err2 bytes.Buffer
	if err := run(args, &out1, &err1); err != nil {
		t.Fatalf("cold run: %v\nstderr:\n%s", err, err1.String())
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

// TestMetricsFlagEmitsSnapshots is the CLI face of the telemetry layer:
// -metrics makes every emitted point carry a snapshot, on stdout and in
// the Result JSONL that -out writes, and -out writes nothing else.
func TestMetricsFlagEmitsSnapshots(t *testing.T) {
	matrixArgs := func(dir string, extra ...string) []string {
		return append([]string{
			"-matrix", "-algos", "PIM1", "-patterns", "random", "-processes", "bernoulli",
			"-rates", "0.02", "-size", "4x4", "-cycles", "300", "-json", "-out", dir,
		}, extra...)
	}
	// readOut decodes the -out Result JSONL after checking that the
	// directory holds only the table and the Result, and that the Result
	// file holds the one line stdout printed.
	readOut := func(dir, stdout string) *experiment.Result {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if want := []string{"scenario-matrix.csv", "scenario-matrix.jsonl"}; !reflect.DeepEqual(names, want) {
			t.Fatalf("-out wrote %q, want %q", names, want)
		}
		data, err := os.ReadFile(filepath.Join(dir, "scenario-matrix.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != stdout || strings.Count(stdout, "\n") != 1 {
			t.Fatalf("-out Result file differs from the one line on stdout:\n%s\nstdout:\n%s", data, stdout)
		}
		res, err := experiment.DecodeResultJSONL(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	outDir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run(matrixArgs(outDir, "-metrics"), &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), `"metrics":{"version":1`) {
		t.Fatalf("-metrics stream carries no snapshots:\n%s", stdout.String())
	}
	res := readOut(outDir, stdout.String())
	if len(res.Series) != 1 || len(res.Series[0].Points) != 1 {
		t.Fatalf("-out Result has the wrong shape: %+v", res.Series)
	}
	snap := res.Series[0].Points[0].Metrics
	if snap == nil || snap.Arbiter != "PIM1" {
		t.Fatalf("-out Result's snapshot = %+v, want PIM1's", snap)
	}

	// Without -metrics, no snapshot key on stdout or in the -out Result.
	bareDir := t.TempDir()
	stdout.Reset()
	stderr.Reset()
	if err := run(matrixArgs(bareDir), &stdout, &stderr); err != nil {
		t.Fatalf("bare run: %v\nstderr:\n%s", err, stderr.String())
	}
	if strings.Contains(stdout.String(), `"metrics"`) {
		t.Fatalf("bare run emitted a metrics key:\n%s", stdout.String())
	}
	if res := readOut(bareDir, stdout.String()); res.Series[0].Points[0].Metrics != nil {
		t.Error("bare run's -out Result carries a snapshot")
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
