// Command sweep is a thin shell over the Scenario/Runner API: it loads
// and saves declarative simulation Specs, executes them through the
// context-aware Runner, regenerates the paper's figures (which
// are canned Specs), runs scenario matrices, records/replays injection
// traces, and runs the benchmark suite. Tables (or, with -json, one
// Result JSON line per Spec) go to stdout; diagnostics and -progress
// lines go to stderr, so piping stdout stays machine-readable. With -out
// it also writes a CSV file and a one-line Result JSONL file per Spec.
//
// Usage:
//
//	sweep -spec FILE [-out DIR] [-workers N] [-progress] [-json]
//	sweep -emit-spec [-figure F | -matrix ... | -run ...]   > specs.json
//	sweep [-figure all|8|9|10|10s|11a|11b|11c] [-quick] [-seed N] [-out DIR]
//	      [-workers N] [-progress] [-json] [-check] [-metrics]
//	      [-reps N [-confidence C]]
//	sweep -matrix [-algos A,B] [-patterns P,Q] [-processes X,Y] [-rates R1,R2]
//	      [-model M] [-size WxH] [-cycles N]
//	sweep -run [-algo A] [-pattern P] [-process X] [-rate R] [-size WxH]
//	      [-record FILE | -replay FILE]
//	sweep -bench [-out DIR] [-bench-baseline BENCH_10.json]
//	sweep -list
//
// Any sweep mode (figure, matrix, run, spec) accepts -cache-dir DIR to
// serve previously completed points from a content-addressed result
// cache and persist new ones as they finish, and -resume to insist that
// prior progress exists (an interrupted run picks up exactly where it
// was killed). Results are byte-identical to an uncached run.
//
// -metrics enables the telemetry layer (internal/obs) on every timing
// simulation: each emitted point carries an observation-only snapshot,
// in the -json stream and in the -out Result JSONL alike. A Result holds
// no wall-clock field, so two runs of the same spec, cached or not,
// print the same bytes.
//
// -cpuprofile and -memprofile write pprof profiles for any mode. Each
// mode (list, spec, bench, verify, matrix, run and figure) reads a fixed
// set of flags; an invocation that selects two modes, or sets a flag its
// mode would drop (for example -size outside -matrix and -run), is
// rejected with an error instead of silently ignoring the flag, and so
// are a few contradictory pairs within one mode (for example -replay
// with -pattern). Simulations within a figure or matrix are independent,
// so by default they are fanned across one worker per CPU; results are
// byte-identical to a serial (-workers 1) run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"alpha21364/internal/cache"
	"alpha21364/internal/core"
	"alpha21364/internal/experiment"
	"alpha21364/internal/prof"
	"alpha21364/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h printed usage; asking for help is not a failure
		}
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
}

// app carries the output streams: results (tables or JSONL) go to out,
// progress and diagnostics to the logger on errW.
type app struct {
	out  io.Writer
	log  *log.Logger
	json bool
	dir  string // -out directory, "" for none
	// exec runs one Spec through a Runner, on the -cache-dir store when
	// one is given.
	exec func(experiment.Spec) (*experiment.Result, error)
}

// emitResult prints one Result to stdout — as JSONL with -json, as a
// formatted table otherwise — and mirrors it into the -out directory.
func (a *app) emitResult(res *experiment.Result, tb experiment.Table, name string) error {
	if a.json {
		if err := res.EncodeJSONL(a.out); err != nil {
			return err
		}
	} else {
		fmt.Fprintln(a.out, tb.Format())
	}
	if err := a.writeCSV(name, tb); err != nil {
		return err
	}
	return a.writeJSONL(name, res)
}

func run(args []string, stdout, stderr io.Writer) error {
	logger := log.New(stderr, "sweep: ", 0)
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)

	figure := fs.String("figure", "all", "which figure to regenerate (all, 8, 9, 10, 10s, 11a, 11b, 11c)")
	quick := fs.Bool("quick", false, "shorter runs and sparser sweeps")
	seed := fs.Uint64("seed", 1, "simulation seed")
	out := fs.String("out", "", "directory for CSV/JSONL output (optional)")
	plot := fs.Bool("plot", false, "also render ASCII BNF charts for timing panels")
	fs.Bool("verify", false, "rerun everything and check the paper's claims")
	markdown := fs.Bool("markdown", false, "with -verify, emit the EXPERIMENTS.md results table")
	workers := fs.Int("workers", 0, "concurrent simulations (0 = one per CPU, 1 = serial)")
	checkFlag := fs.Bool("check", false, "enable the online invariant oracle (conservation, VC bounds, grant legality, deadlock watchdog) for every simulation")
	metricsFlag := fs.Bool("metrics", false, "enable the telemetry layer for every timing simulation: each point carries an internal/obs snapshot in its Result (the -json stream and the -out JSONL)")
	reps := fs.Int("reps", 0, "replications per point: run each point N times with derived seeds and attach mean/stddev/confidence-interval statistics (0 or 1 = single run)")
	confidence := fs.Float64("confidence", 0, "confidence level of the -reps interval (default 0.95)")
	progress := fs.Bool("progress", false, "log Runner events (each completed simulation) to stderr")
	jsonOut := fs.Bool("json", false, "print each Result as one JSON line on stdout instead of formatted tables")

	fs.Bool("list", false, "list algorithms, patterns, processes, models, and figures, then exit")
	fs.Bool("matrix", false, "run a scenario matrix (algorithms x patterns x processes x rates)")
	fs.Bool("run", false, "run a single scenario (implied by -record/-replay)")
	algos := fs.String("algos", "SPAA-rotary,PIM1,WFA-rotary", "comma-separated algorithms for -matrix")
	patterns := fs.String("patterns", strings.Join(workload.PatternNames(), ","), "comma-separated destination patterns for -matrix")
	processes := fs.String("processes", strings.Join(workload.ProcessNames(), ","), "comma-separated arrival processes for -matrix")
	rates := fs.String("rates", "0.01,0.03", "comma-separated injection rates for -matrix")
	size := fs.String("size", "8x8", "torus size WxH for -matrix and -run")
	cycles := fs.Int("cycles", 0, "router cycles per simulation for -matrix and -run (0 = the figure default: 75000, or 15000 with -quick)")
	algo := fs.String("algo", "SPAA-rotary", "algorithm for -run")
	pattern := fs.String("pattern", "random", "destination pattern for -run")
	process := fs.String("process", "bernoulli", "arrival process for -run")
	model := fs.String("model", "coherence", "transaction model for -run and -matrix")
	rate := fs.Float64("rate", 0.03, "injection rate for -run")
	record := fs.String("record", "", "with -run, record the injection stream to this trace file")
	replay := fs.String("replay", "", "with -run, replay a recorded trace instead of generating traffic")

	specFile := fs.String("spec", "", "load a Spec (or Spec array) JSON file and run it through the Runner")
	emitSpec := fs.Bool("emit-spec", false, "print the selected figure/matrix/run as Spec JSON instead of running")
	cacheDir := fs.String("cache-dir", "", "content-addressed result cache directory: completed points are served from it and new ones persisted to it")
	resume := fs.Bool("resume", false, "with -cache-dir, require previously completed points for this invocation and simulate only the missing ones")
	fs.Bool("bench", false, "run the benchmark suite and write BENCH_10.json")
	benchBaseline := fs.String("bench-baseline", "", "with -bench, compare against this BENCH_*.json and fail on >15% regression")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")

	if err := fs.Parse(args); err != nil {
		return err
	}

	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	m, err := selectMode(set)
	if err != nil {
		return err
	}
	if err := checkRules(set, *reps, *cycles, *figure); err != nil {
		return err
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile, logger.Printf)
	if err != nil {
		return err
	}
	defer stopProf()

	a := &app{out: stdout, log: logger, json: *jsonOut, dir: *out}

	study := studyOptions(*seed, *checkFlag, *metricsFlag, *reps, *confidence)

	// Every mode but list, bench and verify runs Specs it builds here,
	// once: -emit-spec prints them, -resume looks them up in the cache,
	// and execution runs them.
	var specs []experiment.Spec
	var files []string // spec and figure mode's output names, one per Spec
	switch m.name {
	case "list":
		a.printLists()
		return nil
	case "bench":
		return a.runBench(*benchBaseline)
	case "spec":
		if specs, err = experiment.ReadSpecFile(*specFile); err != nil {
			return err
		}
		if *plot && !slices.ContainsFunc(specs, isTiming) {
			return fmt.Errorf("-plot applies to timing simulations; every spec in %s uses the standalone arbiter model (no BNF chart to draw)", *specFile)
		}
		for i, sp := range specs {
			files = append(files, specSlug(sp, i))
		}
	case "matrix":
		sp, err := matrixSpec(study, *quick, *algos, *patterns, *processes, *rates, *model, *size, *cycles)
		if err != nil {
			return err
		}
		specs = []experiment.Spec{sp}
	case "run":
		sp, err := runSpecFromFlags(study, *quick, *algo, *pattern, *process, *model, *rate, *size, *cycles, *record, *replay)
		if err != nil {
			return err
		}
		specs = []experiment.Spec{sp}
	case "figure":
		if specs, files, err = figureSpecs(*figure, *quick, study); err != nil {
			return err
		}
	}
	// The study options can make a built Spec invalid (-confidence 2), so
	// every mode's Specs are checked here, before -emit-spec prints them
	// or the Runner starts on the first.
	for _, sp := range specs {
		if err := sp.Validate(); err != nil {
			return err
		}
	}
	if *emitSpec {
		data, err := experiment.EncodeSpecs(specs)
		if err != nil {
			return err
		}
		_, err = a.out.Write(data)
		return err
	}

	var progressSink func(experiment.Event)
	if *progress {
		start := time.Now()
		progressSink = func(e experiment.Event) {
			elapsed := time.Since(start).Round(time.Second)
			switch e.Type {
			case experiment.EventRunStart:
				logger.Printf("[  0/%3d %6s] start %s", e.Total, elapsed, e.Label)
			case experiment.EventPointDone:
				logger.Printf("[%3d/%3d %6s] %s", e.Done, e.Total, elapsed, e.Label)
			case experiment.EventSeriesDone:
				logger.Printf("[%3d/%3d %6s] series done: %s", e.Done, e.Total, elapsed, e.Series)
			}
		}
	}

	var store *cache.Store
	if *cacheDir != "" {
		store, err = cache.Open(*cacheDir)
		if err != nil {
			return err
		}
	}
	a.exec = func(sp experiment.Spec) (*experiment.Result, error) {
		cached := 0
		res, err := experiment.NewRunner(
			experiment.WithWorkers(*workers),
			experiment.WithCache(store),
			experiment.WithEventSink(func(e experiment.Event) {
				if e.Type == experiment.EventRunStart {
					cached = e.Cached
				}
				if progressSink != nil {
					progressSink(e)
				}
			}),
		).Run(context.Background(), sp)
		if err != nil {
			return res, err
		}
		if store != nil {
			points := countPoints(res)
			logger.Printf("cache: %d/%d points cached, %d simulated", cached, points, points-cached)
		}
		return res, nil
	}
	if *resume {
		if err := checkResumable(store, logger, specs); err != nil {
			return err
		}
	}

	start := time.Now()
	switch m.name {
	case "spec":
		if err := a.runSpecs(specs, files, *plot); err != nil {
			return err
		}
		a.log.Printf("%d spec(s) in %v", len(specs), time.Since(start).Round(time.Second))
	case "matrix":
		res, err := a.exec(specs[0])
		if err != nil {
			return err
		}
		if err := a.emitResult(res, res.ScenarioTable(), "scenario-matrix"); err != nil {
			return err
		}
		logger.Printf("%d scenarios in %v", countPoints(res), time.Since(start).Round(time.Second))
	case "run":
		res, err := a.exec(specs[0])
		if err != nil {
			return err
		}
		if err := a.printSingleRun(res, *size, *record, *replay); err != nil {
			return err
		}
		if err := a.writeJSONL("run", res); err != nil {
			return err
		}
		logger.Printf("done in %v", time.Since(start).Round(time.Second))
	case "figure":
		if err := a.runSpecs(specs, files, *plot); err != nil {
			return err
		}
		logger.Printf("done in %v", time.Since(start).Round(time.Second))
	case "verify":
		dataset, err := experiment.CollectDataset(*quick, func(sp experiment.Spec) (*experiment.Result, error) {
			return a.exec(withStudy(sp, study))
		})
		if err != nil {
			return err
		}
		verdicts := experiment.Verify(dataset)
		if *markdown {
			fmt.Fprint(a.out, experiment.VerdictMarkdown(verdicts))
		} else {
			fmt.Fprintln(a.out, experiment.VerdictTable(verdicts).Format())
		}
		bad := 0
		for _, v := range verdicts {
			if !v.OK {
				bad++
			}
		}
		logger.Printf("%d/%d claims reproduced", len(verdicts)-bad, len(verdicts))
	}
	return nil
}

// A mode is one kind of invocation. Its row is the flags it reads: the
// ones that select it and the ones it takes besides. An invocation
// selects one mode and may set only the flags of that mode's row, and the
// profilers, which every mode takes; any other flag would be dropped, so
// it is rejected instead.
type mode struct {
	name      string
	selectors string // the flags that select the mode, space-separated
	reads     string // the mode's other flags, space-separated
}

// execFlags change how figure, matrix and run mode execute their Specs,
// never what the Specs are. -emit-spec prints the Specs and runs nothing,
// so it turns these off, and figure mode's -plot with them.
const execFlags = "out workers progress json cache-dir resume"

// sweepFlags are the flags figure, matrix and run mode share: -quick,
// the study flags (studyOptions), -emit-spec, and the execution flags.
const sweepFlags = "quick seed check metrics reps confidence emit-spec " + execFlags

// modes lists every mode's row in the order selection tries them. Figure
// mode, the last, is also the default when no selector is set.
var modes = []mode{
	{"list", "list", ""},
	{"spec", "spec", "plot " + execFlags},
	{"bench", "bench", "out bench-baseline"},
	{"verify", "verify", "markdown quick seed workers progress check reps confidence"},
	{"matrix", "matrix", "algos patterns processes rates model size cycles " + sweepFlags},
	{"run", "run record replay", "algo pattern process rate model size cycles " + sweepFlags},
	{"figure", "figure", "plot " + sweepFlags},
}

// selectMode returns the mode the set flags select, failing on the first
// set flag, in name order, that the mode does not read. A second mode's
// selector is such a flag, so two modes fail too.
func selectMode(set map[string]bool) (mode, error) {
	m, by := modes[len(modes)-1], ""
	for _, c := range modes {
		sel := strings.Fields(c.selectors)
		if i := slices.IndexFunc(sel, func(f string) bool { return set[f] }); i >= 0 {
			m, by = c, " (-"+sel[i]+")"
			break
		}
	}
	row := strings.Fields(m.selectors + " " + m.reads + " cpuprofile memprofile")
	var off []string
	if set["emit-spec"] {
		off = strings.Fields(execFlags + " plot")
	}
	for _, f := range slices.Sorted(maps.Keys(set)) {
		if !slices.Contains(row, f) {
			return m, fmt.Errorf("-%s does not apply to %s mode%s", f, m.name, by)
		}
		if slices.Contains(off, f) {
			return m, fmt.Errorf("-%s does not apply to %s mode%s with -emit-spec, which prints Specs and runs nothing", f, m.name, by)
		}
	}
	return m, nil
}

// pairRules are the contradictions between flags of one row: a flag,
// the flags it cannot be set with, and why.
var pairRules = []struct{ flag, with, why string }{
	{"record", "replay", "a run either records or replays, not both"},
	{"replay", "pattern process rate model", "a replayed trace fixes the injection stream"},
	{"cache-dir", "record replay", "trace record/replay bypasses the result cache; run without -cache-dir"},
	{"record", "reps", "every replication would rewrite the trace file"},
	{"plot", "json", "-json streams Results without tables or charts"},
}

// checkRules applies the rules a mode's row cannot express: the pair
// rules, -resume's need for -cache-dir, and the rules that read a flag's
// value.
func checkRules(set map[string]bool, reps, cycles int, figure string) error {
	for _, r := range pairRules {
		for _, f := range strings.Fields(r.with) {
			if set[r.flag] && set[f] {
				return fmt.Errorf("-%s and -%s are contradictory: %s", r.flag, f, r.why)
			}
		}
	}
	standalone := figure == "8" || figure == "9"
	switch {
	case set["resume"] && !set["cache-dir"]:
		return fmt.Errorf("-resume requires -cache-dir: resuming reads completed points from the cache")
	case reps < 0:
		return fmt.Errorf("-reps %d must be >= 0 (0 or 1 = a single run)", reps)
	case cycles < 0:
		return fmt.Errorf("-cycles %d must be >= 0 (0 = the figure default)", cycles)
	case set["confidence"] && reps < 2:
		return fmt.Errorf("-confidence requires -reps 2 or more (there is no interval over one run)")
	case standalone && set["metrics"]:
		return fmt.Errorf("-metrics applies to timing simulations; figure %s uses the standalone arbiter model (no router simulation to observe)", figure)
	case standalone && set["plot"]:
		return fmt.Errorf("-plot applies to timing simulations; figure %s uses the standalone arbiter model (no BNF chart to draw)", figure)
	}
	return nil
}

// studyOptions returns the Spec options of the study flags, which
// figure, matrix and run mode apply to every Spec they build and verify
// to every canned Spec it runs. -seed 0 means seed 1, as a Spec's seed 0
// does. -metrics observes timing Specs only: the standalone model has no
// routers. -reps 1 is a single run, so it leaves the Spec as it is.
func studyOptions(seed uint64, check, metrics bool, reps int, confidence float64) []experiment.SpecOption {
	if seed == 0 {
		seed = 1
	}
	study := []experiment.SpecOption{experiment.WithSeed(seed)}
	if check {
		study = append(study, experiment.WithCheck())
	}
	if metrics {
		study = append(study, func(sp *experiment.Spec) {
			if isTiming(*sp) {
				experiment.WithMetrics()(sp)
			}
		})
	}
	if reps > 1 {
		study = append(study, experiment.WithReplications(reps), experiment.WithConfidence(confidence))
	}
	return study
}

// withStudy returns sp with the study options applied.
func withStudy(sp experiment.Spec, study []experiment.SpecOption) experiment.Spec {
	for _, opt := range study {
		opt(&sp)
	}
	return sp
}

// figureSpecs builds the canned Specs of -figure (every figure for
// "all") with the study options applied, each with its output name:
// figure8.csv, figure10-<panel>.csv, figure11a.csv.
func figureSpecs(figure string, quick bool, study []experiment.SpecOption) ([]experiment.Spec, []string, error) {
	names := []string{figure}
	if figure == "all" {
		names = experiment.FigureSpecNames()
	}
	var specs []experiment.Spec
	var files []string
	for _, name := range names {
		fig, err := experiment.FigureSpecs(name, quick)
		if err != nil {
			return nil, nil, err
		}
		for i, sp := range fig {
			file := "figure" + name
			if len(fig) > 1 {
				file += "-" + specSlug(sp, i)
			}
			specs = append(specs, withStudy(sp, study))
			files = append(files, file)
		}
	}
	return specs, files, nil
}

// checkResumable enforces -resume's contract before any simulation: the
// cache must already hold at least one completed point for the specs
// this invocation is about to run. Without -resume a populated cache is
// still served — -resume only adds the "there must be prior progress"
// assertion, so a typo'd flag set cannot silently restart from scratch.
func checkResumable(store *cache.Store, logger *log.Logger, specs []experiment.Spec) error {
	found := 0
	for _, sp := range specs {
		key, err := experiment.SpecHash(sp)
		if err != nil {
			return err
		}
		cells, err := store.Cells(key)
		if err != nil {
			return err
		}
		found += len(cells)
	}
	if found == 0 {
		return fmt.Errorf("-resume: the cache holds no completed points for this invocation; drop -resume to start fresh")
	}
	logger.Printf("resume: %d completed point(s) already cached", found)
	return nil
}

// runSpecs executes specs in order, printing each Result's table (and,
// with -plot, a timing Result's chart first) and writing its outputs
// under its name in files.
func (a *app) runSpecs(specs []experiment.Spec, files []string, plot bool) error {
	for i, sp := range specs {
		res, err := a.exec(sp)
		if err != nil {
			return err
		}
		if plot && !a.json && isTiming(sp) {
			fmt.Fprintln(a.out, res.Plot(72, 24))
		}
		if err := a.emitResult(res, res.Table(), files[i]); err != nil {
			return err
		}
	}
	return nil
}

// isTiming reports whether a spec runs the timing model, whose Results
// have a BNF chart to draw.
func isTiming(sp experiment.Spec) bool { return sp.Mode != experiment.ModeStandalone }

// countPoints is the number of grid points a Result holds.
func countPoints(res *experiment.Result) int {
	n := 0
	for _, s := range res.Series {
		n += len(s.Points)
	}
	return n
}

// specSlug derives a filesystem-friendly name for a spec's outputs.
func specSlug(sp experiment.Spec, i int) string {
	s := sp.Name
	if s == "" {
		s = fmt.Sprintf("spec-%d", i+1)
	}
	s = strings.ToLower(s)
	s = strings.NewReplacer(" ", "-", ",", "", "(", "", ")", "", "/", "-").Replace(s)
	return s
}

// printSingleRun prints the one-line summary of a single-scenario spec
// (or, with -json, its Result line).
func (a *app) printSingleRun(res *experiment.Result, size, record, replay string) error {
	if len(res.Series) == 0 || len(res.Series[0].Points) == 0 {
		return fmt.Errorf("no result point")
	}
	if a.json {
		if err := res.EncodeJSONL(a.out); err != nil {
			return err
		}
	} else {
		s := res.Series[0]
		p := s.Points[0]
		what := fmt.Sprintf("%s/%s/%s/%s @ %g", s.Arbiter, s.Pattern, s.Process, modelName(s.Model), p.Rate)
		if replay != "" {
			what = fmt.Sprintf("%s replaying %s", s.Arbiter, replay)
		}
		fmt.Fprintf(a.out, "%s on %s: %.4f flits/router/ns @ %.1f ns avg (p50 %.0f / p95 %.0f / p99 %.0f ns), %d packets, %d txns\n",
			what, size, p.Throughput, p.AvgLatencyNS, p.LatencyP50NS, p.LatencyP95NS, p.LatencyP99NS, p.Packets, p.Completed)
	}
	if record != "" {
		a.log.Printf("recorded trace to %s", record)
	}
	return nil
}

func modelName(m string) string {
	if m == "" {
		return "coherence"
	}
	return m
}

// benchRegressionTolerance is the CI gate: a benchmark entry failing by
// more than this fraction against the committed baseline fails the run.
const benchRegressionTolerance = 0.15

// runBench executes the benchmark suite (experiment.RunBench: Spec-driven
// workloads through the ordinary Runner), writes BENCH_10.json, and, when
// a baseline is given, fails on >15% calibration-normalized regression.
func (a *app) runBench(baseline string) error {
	dir := a.dir
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	start := time.Now()
	rep, err := experiment.RunBench(context.Background())
	if err != nil {
		return err
	}
	for _, e := range rep.Entries {
		a.log.Printf("%-22s %8.1f ns/cycle  %7.2f allocs/cycle  %6.1f points/s",
			e.Name, e.NSPerSimCycle, e.AllocsPerCycle, e.PointsPerSec)
	}
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", experiment.BenchVersion))
	if err := rep.WriteFile(path); err != nil {
		return err
	}
	a.log.Printf("wrote %s in %v (calibration %.2f ns/iter)", path,
		time.Since(start).Round(time.Millisecond), rep.CalibrationNS)
	if baseline == "" {
		return nil
	}
	base, err := experiment.ReadBenchFile(baseline)
	if err != nil {
		return err
	}
	regressions := rep.Compare(base, benchRegressionTolerance)
	for _, r := range regressions {
		a.log.Printf("REGRESSION: %s", r)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d benchmark regression(s) beyond %.0f%% against %s",
			len(regressions), 100*benchRegressionTolerance, baseline)
	}
	a.log.Printf("no regressions beyond %.0f%% against %s", 100*benchRegressionTolerance, baseline)
	return nil
}

// matrixSpec parses the -matrix flags into a Spec with the study
// options applied.
func matrixSpec(study []experiment.SpecOption, quick bool, algos, patterns, processes, rates, model, size string, cycles int) (experiment.Spec, error) {
	var arbiters []string
	for _, name := range splitList(algos) {
		k, err := core.ParseKind(name)
		if err != nil {
			return experiment.Spec{}, err
		}
		arbiters = append(arbiters, k.String())
	}
	pats := splitList(patterns)
	procs := splitList(processes)
	var rs []float64
	for _, f := range splitList(rates) {
		r, err := strconv.ParseFloat(f, 64)
		if err != nil || r <= 0 {
			return experiment.Spec{}, fmt.Errorf("invalid rate %q", f)
		}
		rs = append(rs, r)
	}
	if len(arbiters) == 0 || len(pats) == 0 || len(procs) == 0 || len(rs) == 0 {
		return experiment.Spec{}, fmt.Errorf("matrix needs at least one algorithm, pattern, process, and rate")
	}
	opts, err := baseOptions(quick, size, cycles)
	if err != nil {
		return experiment.Spec{}, err
	}
	opts = append(opts,
		experiment.WithName("Scenario matrix"),
		experiment.WithArbiters(arbiters...),
		experiment.WithPatterns(pats...),
		experiment.WithProcesses(procs...),
		experiment.WithModel(model),
		experiment.WithRates(rs...),
	)
	return experiment.NewSpec(append(opts, study...)...), nil
}

// runSpecFromFlags parses the -run flags into a single-scenario Spec
// with the study options applied.
func runSpecFromFlags(study []experiment.SpecOption, quick bool, algo, pattern, process, model string,
	rate float64, size string, cycles int, record, replay string) (experiment.Spec, error) {
	opts, err := baseOptions(quick, size, cycles)
	if err != nil {
		return experiment.Spec{}, err
	}
	opts = append(opts, experiment.WithName("run"), experiment.WithArbiters(algo))
	if replay != "" {
		opts = append(opts, experiment.WithReplay(replay))
	} else {
		opts = append(opts,
			experiment.WithPatterns(pattern),
			experiment.WithProcesses(process),
			experiment.WithModel(model),
			experiment.WithRates(rate),
		)
		if record != "" {
			opts = append(opts, experiment.WithRecord(record))
		}
	}
	return experiment.NewSpec(append(opts, study...)...), nil
}

func (a *app) printLists() {
	fmt.Fprintln(a.out, "algorithms:", strings.Join(core.KindNames(), ", "))
	fmt.Fprintln(a.out, "patterns:  ", strings.Join(workload.PatternNames(), ", "))
	fmt.Fprintln(a.out, "processes: ", strings.Join(workload.ProcessNames(), ", "))
	fmt.Fprintln(a.out, "models:    ", strings.Join(workload.ModelNames(), ", "))
	fmt.Fprintln(a.out, "figures:   ", strings.Join(experiment.FigureSpecNames(), ", "))
}

func (a *app) writeCSV(name string, tb experiment.Table) error {
	if a.dir == "" {
		return nil
	}
	if err := os.MkdirAll(a.dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(a.dir, name+".csv")
	if err := os.WriteFile(path, []byte(tb.CSV()), 0o644); err != nil {
		return err
	}
	a.log.Printf("wrote %s", path)
	return nil
}

// writeJSONL writes the Result, one JSON line, next to the CSV.
func (a *app) writeJSONL(name string, res *experiment.Result) error {
	if a.dir == "" {
		return nil
	}
	if err := os.MkdirAll(a.dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(a.dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.EncodeJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	a.log.Printf("wrote %s", path)
	return nil
}

// parseSize parses "WxH" into torus dimensions.
func parseSize(s string) (int, int, error) {
	parts := strings.SplitN(strings.ToLower(s), "x", 2)
	if len(parts) == 2 {
		w, errW := strconv.Atoi(strings.TrimSpace(parts[0]))
		h, errH := strconv.Atoi(strings.TrimSpace(parts[1]))
		if errW == nil && errH == nil && w >= 2 && h >= 2 {
			return w, h, nil
		}
	}
	return 0, 0, fmt.Errorf("invalid -size %q (want WxH, e.g. 8x8)", s)
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// baseOptions parses -size and -cycles (0 means the figure default, at
// -quick fidelity or not) into the Spec options -matrix and -run share:
// the torus and the run length.
func baseOptions(quick bool, size string, cycles int) ([]experiment.SpecOption, error) {
	w, h, err := parseSize(size)
	if err != nil {
		return nil, err
	}
	if cycles <= 0 {
		cycles = experiment.FigureCycles
		if quick {
			cycles = experiment.QuickFigureCycles
		}
	}
	return []experiment.SpecOption{
		experiment.WithTopology(w, h),
		experiment.WithCycles(cycles),
	}, nil
}
