// Command sweep is a thin shell over the Scenario/Runner API: it loads
// and saves declarative simulation Specs, executes them through the
// context-aware streaming Runner, regenerates the paper's figures (which
// are canned Specs), runs scenario matrices, records/replays injection
// traces, and runs the benchmark suite. Tables (or, with -json, Result
// JSONL) go to stdout; diagnostics and -progress lines go to stderr, so
// piping stdout stays machine-readable. With -out it also writes CSV
// files and Result JSONL documents.
//
// Usage:
//
//	sweep -spec FILE [-out DIR] [-workers N] [-progress] [-json] [-stable]
//	sweep -emit-spec [-figure F | -matrix ... | -run ...]   > specs.json
//	sweep [-figure all|8|9|10|10s|11a|11b|11c] [-quick] [-seed N] [-out DIR]
//	      [-workers N] [-progress] [-json] [-check] [-metrics] [-stable]
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
// and with -out a <name>.metrics.json sidecar collects them. -stable
// zeroes volatile fields (wall-clock durations) in emitted Results so
// two runs of the same spec compare byte-identical — the canonical
// normalization for warm-cache rerun checks.
//
// -cpuprofile and -memprofile write pprof profiles for any mode.
// Contradictory flag combinations (for example -record with -matrix, or
// -replay with -pattern) are rejected with an error instead of silently
// ignoring flags. Simulations within a figure or matrix are independent,
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
	out    io.Writer
	log    *log.Logger
	json   bool
	dir    string // -out directory, "" for none
	stable bool   // -stable: StripVolatile every Result before emission
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
	verify := fs.Bool("verify", false, "rerun everything and check the paper's claims")
	markdown := fs.Bool("markdown", false, "with -verify, emit the EXPERIMENTS.md results table")
	workers := fs.Int("workers", 0, "concurrent simulations (0 = one per CPU, 1 = serial)")
	torusShards := fs.Int("torus-shards", 0, "spatially shard each timing simulation into this many row bands, each on its own engine with CMB lookahead synchronization (results stay byte-identical; 0 = single engine)")
	checkFlag := fs.Bool("check", false, "enable the online invariant oracle (conservation, VC bounds, grant legality, deadlock watchdog) for every simulation")
	metricsFlag := fs.Bool("metrics", false, "enable the telemetry layer for every timing simulation: each point carries an internal/obs snapshot, and with -out a <name>.metrics.json sidecar is written")
	stable := fs.Bool("stable", false, "zero volatile fields (wall-clock durations) in emitted Results, so two runs of the same spec compare byte-identical")
	reps := fs.Int("reps", 0, "replications per point: run each point N times with derived seeds and attach mean/stddev/confidence-interval statistics (0 or 1 = single run)")
	confidence := fs.Float64("confidence", 0, "confidence level of the -reps interval (default 0.95)")
	progress := fs.Bool("progress", false, "log Runner events (each completed simulation) to stderr")
	jsonOut := fs.Bool("json", false, "stream Result JSONL to stdout instead of formatted tables")

	list := fs.Bool("list", false, "list algorithms, patterns, processes, models, and figures, then exit")
	matrix := fs.Bool("matrix", false, "run a scenario matrix (algorithms x patterns x processes x rates)")
	runOne := fs.Bool("run", false, "run a single scenario (implied by -record/-replay)")
	algos := fs.String("algos", "SPAA-rotary,PIM1,WFA-rotary", "comma-separated algorithms for -matrix")
	patterns := fs.String("patterns", strings.Join(workload.PatternNames(), ","), "comma-separated destination patterns for -matrix")
	processes := fs.String("processes", strings.Join(workload.ProcessNames(), ","), "comma-separated arrival processes for -matrix")
	rates := fs.String("rates", "0.01,0.03", "comma-separated injection rates for -matrix")
	size := fs.String("size", "8x8", "torus size WxH for -matrix and -run")
	cycles := fs.Int("cycles", 0, "router cycles per simulation (0 = figure default)")
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
	bench := fs.Bool("bench", false, "run the benchmark suite and write BENCH_10.json")
	benchBaseline := fs.String("bench-baseline", "", "with -bench, compare against this BENCH_*.json and fail on >15% regression")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")

	if err := fs.Parse(args); err != nil {
		return err
	}

	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := rejectContradictions(set); err != nil {
		return err
	}
	if err := rejectValueContradictions(set, *reps, *figure); err != nil {
		return err
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile, logger.Printf)
	if err != nil {
		return err
	}
	defer stopProf()

	a := &app{out: stdout, log: logger, json: *jsonOut, dir: *out, stable: *stable}

	o := experiment.Options{
		Quick: *quick, Seed: *seed,
		Check: *checkFlag, Metrics: *metricsFlag,
		Replications: *reps, Confidence: *confidence,
		TorusShards: *torusShards,
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
		if a.stable {
			experiment.StripVolatile(res)
		}
		return res, nil
	}
	if *resume {
		if err := checkResumable(store, logger, func() ([]experiment.Spec, error) {
			if *specFile != "" {
				return experiment.ReadSpecFile(*specFile)
			}
			return specsFromFlags(o, *figure, *matrix, *runOne,
				*algos, *patterns, *processes, *rates, *model, *size, *cycles,
				*algo, *pattern, *process, *rate, "", "")
		}); err != nil {
			return err
		}
	}

	switch {
	case *list:
		a.printLists()
		return nil
	case *emitSpec:
		specs, err := specsFromFlags(o, *figure, *matrix, *runOne || *record != "" || *replay != "",
			*algos, *patterns, *processes, *rates, *model, *size, *cycles,
			*algo, *pattern, *process, *rate, *record, *replay)
		if err != nil {
			return err
		}
		data, err := experiment.EncodeSpecs(specs)
		if err != nil {
			return err
		}
		_, err = a.out.Write(data)
		return err
	case *specFile != "":
		specs, err := experiment.ReadSpecFile(*specFile)
		if err != nil {
			return err
		}
		return a.runSpecs(*specFile, specs, *plot)
	case *bench:
		return a.runBench(*benchBaseline)
	case *matrix:
		sp, err := matrixSpec(o, *algos, *patterns, *processes, *rates, *model, *size, *cycles)
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := a.exec(sp)
		if err != nil {
			return err
		}
		if err := a.emitResult(res, res.ScenarioTable(), "scenario-matrix"); err != nil {
			return err
		}
		logger.Printf("%d scenarios in %v", countPoints(res), time.Since(start).Round(time.Second))
		return nil
	case *runOne || *record != "" || *replay != "":
		sp, err := runSpecFromFlags(o, *algo, *pattern, *process, *model, *rate, *size, *cycles, *record, *replay)
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := a.exec(sp)
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
		return nil
	case *verify:
		dataset, err := experiment.CollectDataset(o, a.exec)
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
		return nil
	}

	// Figure mode: every figure is a set of canned Specs.
	names := []string{*figure}
	if *figure == "all" {
		names = experiment.FigureSpecNames()
	}
	start := time.Now()
	for _, name := range names {
		specs, err := experiment.FigureSpecs(name, o)
		if err != nil {
			return err
		}
		if err := a.runFigureSpecs(name, specs, *plot); err != nil {
			return err
		}
	}
	logger.Printf("done in %v", time.Since(start).Round(time.Second))
	return nil
}

// contradiction is one pair of flags where setting both would silently
// override or ignore one of them; rejectContradictions fails fast instead.
type contradiction struct {
	a, b, why string
}

// requirement is a flag that is meaningless without another flag.
type requirement struct {
	flag, needs, why string
}

// contradictions is the full rule table, built once; main_test.go
// enumerates it and proves every rule actually rejects its pair.
var contradictions = buildContradictions()

// requirements lists the dependent flags; enumerated by the same test.
var requirements = []requirement{
	{"bench-baseline", "bench", "the baseline comparison is part of bench mode"},
	{"resume", "cache-dir", "resuming reads completed points from the cache"},
	{"markdown", "verify", "the markdown table is the claim verdicts' EXPERIMENTS.md form"},
}

func buildContradictions() []contradiction {
	var rules []contradiction
	add := func(a, b, why string) { rules = append(rules, contradiction{a, b, why}) }
	// -spec fully describes the work; every selection flag contradicts it.
	// (The execution flags -workers/-progress/-json/-out and the cache
	// flags -cache-dir/-resume deliberately remain compatible: they
	// change how a spec runs, never what it means.)
	for _, f := range []string{"figure", "matrix", "run", "verify", "bench", "quick", "seed", "cycles", "size",
		"algo", "algos", "pattern", "patterns", "process", "processes", "model", "rate", "rates", "record", "replay",
		"check", "metrics", "reps", "confidence", "torus-shards"} {
		add("spec", f, "a spec file fixes the whole scenario; edit the file instead")
	}
	add("emit-spec", "spec", "emitting a loaded spec is a copy; use the file directly")
	add("emit-spec", "verify", "claim verification has no single spec form")
	add("emit-spec", "bench", "the bench suite is fixed; run it directly")
	add("emit-spec", "json", "-emit-spec already writes Spec JSON to stdout")
	add("record", "replay", "a run either records or replays, not both")
	// Mode selectors are mutually exclusive.
	add("matrix", "run", "pick one mode")
	add("matrix", "figure", "pick one mode")
	add("matrix", "verify", "pick one mode")
	add("run", "figure", "pick one mode")
	add("run", "verify", "pick one mode")
	add("figure", "verify", "claim verification always reruns every figure")
	add("bench", "figure", "the bench suite is fixed")
	add("bench", "matrix", "the bench suite is fixed")
	add("bench", "run", "the bench suite is fixed")
	add("bench", "verify", "the bench suite is fixed")
	add("bench", "json", "the bench report is already machine-readable (BENCH_*.json)")
	add("bench", "workers", "the bench suite measures one simulation at a time (serial by design)")
	add("bench", "progress", "bench entries are logged to stderr as they finish")
	add("verify", "json", "claim verification emits verdict tables, not Results")
	// Charts are drawn beside the tables of figure and spec mode only.
	add("plot", "json", "-json streams Results without tables or charts")
	for _, f := range []string{"matrix", "run", "record", "replay", "verify", "bench", "emit-spec", "list"} {
		add(f, "plot", "this mode draws no BNF chart; -plot applies to figure and spec modes")
	}
	// Replay fixes the injection stream; generative knobs contradict it.
	for _, f := range []string{"pattern", "rate", "process", "model"} {
		add("replay", f, "a replayed trace fixes the injection stream")
	}
	// Trace I/O belongs to single runs.
	for _, f := range []string{"record", "replay"} {
		add("matrix", f, "trace record/replay applies to single runs; use -run")
		add("figure", f, "trace record/replay applies to single runs; use -run")
	}
	// Single-run vs matrix axis flags.
	for _, pair := range [][2]string{
		{"run", "algos"}, {"run", "patterns"}, {"run", "processes"}, {"run", "rates"},
		{"matrix", "algo"}, {"matrix", "pattern"}, {"matrix", "process"}, {"matrix", "rate"},
	} {
		add(pair[0], pair[1], "that axis flag belongs to the other mode")
	}
	// The bench suite measures the unchecked, unreplicated hot path.
	add("bench", "check", "the bench suite measures the unchecked hot path; see DESIGN.md for the enabled cost model")
	add("bench", "reps", "the bench suite is fixed")
	add("bench", "metrics", "the bench suite measures the uninstrumented hot path")
	add("verify", "metrics", "claim verification compares measurements, not telemetry")
	// -stable normalizes emitted Results; modes that emit something else
	// have nothing to normalize.
	for _, f := range []string{"emit-spec", "bench", "verify", "list"} {
		add(f, "stable", "-stable normalizes emitted Results; this mode emits none")
	}
	// Recording replays every replication into the same trace file.
	add("record", "reps", "every replication would rewrite the trace file")
	// Trace record/replay pins the single-engine event stream; the sharded
	// assembly reproduces the same results but not the same trace file
	// interleavings, so the combination is rejected rather than trusted.
	for _, f := range []string{"record", "replay"} {
		add(f, "torus-shards", "trace record/replay runs on the single-engine path; drop -torus-shards")
	}
	add("bench", "torus-shards", "the bench suite fixes its own shard counts (see the timing-16x16-saturated entries)")
	add("verify", "torus-shards", "claim verification always reruns the figures single-engine")
	// The cache serves sweep results; modes that measure or emit
	// something other than sweep Results cannot use it.
	for _, f := range []string{"bench", "verify", "emit-spec", "list"} {
		add("cache-dir", f, "the result cache applies to sweep execution only")
	}
	// Record/replay specs bypass the cache: a file path does not
	// content-address the trace behind it.
	for _, f := range []string{"record", "replay"} {
		add("cache-dir", f, "trace record/replay bypasses the result cache; run without -cache-dir")
	}
	return rules
}

// rejectContradictions fails fast on flag combinations where one flag
// would silently override or ignore another, walking the rule tables.
func rejectContradictions(set map[string]bool) error {
	for _, c := range contradictions {
		if set[c.a] && set[c.b] {
			return fmt.Errorf("-%s and -%s are contradictory: %s", c.a, c.b, c.why)
		}
	}
	for _, r := range requirements {
		if set[r.flag] && !set[r.needs] {
			return fmt.Errorf("-%s requires -%s: %s", r.flag, r.needs, r.why)
		}
	}
	return nil
}

// rejectValueContradictions catches flag combinations that depend on
// flag values rather than mere presence.
func rejectValueContradictions(set map[string]bool, reps int, figure string) error {
	if set["confidence"] && reps < 2 {
		return fmt.Errorf("-confidence requires -reps 2 or more (there is no interval over one run)")
	}
	if set["figure"] && (figure == "8" || figure == "9") {
		for _, f := range []struct{ flag, why string }{
			{"torus-shards", "no torus to shard"},
			{"metrics", "no router simulation to observe"},
			{"plot", "no BNF chart to draw"},
		} {
			if set[f.flag] {
				return fmt.Errorf("-%s applies to timing simulations; figure %s uses the standalone arbiter model (%s)", f.flag, figure, f.why)
			}
		}
	}
	return nil
}

// specsFromFlags builds the Spec(s) the current flags describe, for
// -emit-spec.
func specsFromFlags(o experiment.Options, figure string, matrix, runOne bool,
	algos, patterns, processes, rates, model, size string, cycles int,
	algo, pattern, process string, rate float64, record, replay string) ([]experiment.Spec, error) {
	switch {
	case matrix:
		sp, err := matrixSpec(o, algos, patterns, processes, rates, model, size, cycles)
		if err != nil {
			return nil, err
		}
		return []experiment.Spec{sp}, nil
	case runOne:
		sp, err := runSpecFromFlags(o, algo, pattern, process, model, rate, size, cycles, record, replay)
		if err != nil {
			return nil, err
		}
		return []experiment.Spec{sp}, nil
	default:
		return experiment.FigureSpecs(figure, o)
	}
}

// checkResumable enforces -resume's contract before any simulation: the
// cache must already hold at least one completed point for the specs
// this invocation is about to run. Without -resume a populated cache is
// still served — -resume only adds the "there must be prior progress"
// assertion, so a typo'd flag set cannot silently restart from scratch.
func checkResumable(store *cache.Store, logger *log.Logger, load func() ([]experiment.Spec, error)) error {
	specs, err := load()
	if err != nil {
		return err
	}
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

// runSpecs executes loaded spec files, printing each result. With -plot
// it fails before running anything when no spec draws a chart.
func (a *app) runSpecs(path string, specs []experiment.Spec, plot bool) error {
	if plot && !slices.ContainsFunc(specs, func(sp experiment.Spec) bool { return sp.Mode != experiment.ModeStandalone }) {
		return fmt.Errorf("-plot applies to timing simulations; every spec in %s uses the standalone arbiter model (no BNF chart to draw)", path)
	}
	start := time.Now()
	for i, sp := range specs {
		res, err := a.exec(sp)
		if err != nil {
			return err
		}
		if plot && !a.json && sp.Mode != experiment.ModeStandalone {
			fmt.Fprintln(a.out, res.Panel().Plot(72, 24))
		}
		if err := a.emitResult(res, res.Table(), specSlug(sp, i)); err != nil {
			return err
		}
	}
	a.log.Printf("%d spec(s) in %v", len(specs), time.Since(start).Round(time.Second))
	return nil
}

// runFigureSpecs executes one figure's canned specs with the historical
// per-figure CSV naming: figure8.csv, figure10-<panel>.csv, figure11a.csv.
func (a *app) runFigureSpecs(figure string, specs []experiment.Spec, plot bool) error {
	for i, sp := range specs {
		res, err := a.exec(sp)
		if err != nil {
			return err
		}
		if plot && !a.json && sp.Mode != experiment.ModeStandalone {
			fmt.Fprintln(a.out, res.Panel().Plot(72, 24))
		}
		var tb experiment.Table
		if sp.Mode == experiment.ModeStandalone {
			// Keep the historical Figure 8/9 table layout.
			switch sp.Name {
			case "Figure 8":
				f8 := experiment.Figure8Result{
					LoadFractions:  sp.Standalone.Values,
					SaturationLoad: res.SaturationLoad,
					Curves:         res.Curves(),
				}
				tb = f8.Table()
			default:
				f9 := experiment.Figure9Result{
					Occupancies: sp.Standalone.Values,
					Curves:      res.Curves(),
				}
				tb = f9.Table()
			}
		} else {
			tb = res.Panel().Table()
		}
		name := "figure" + figure
		if len(specs) > 1 {
			name += "-" + specSlug(sp, i)
		}
		if err := a.emitResult(res, tb, name); err != nil {
			return err
		}
	}
	return nil
}

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
// (or, with -json, its Result JSONL).
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

// matrixSpec parses the -matrix flags into a Spec.
func matrixSpec(o experiment.Options, algos, patterns, processes, rates, model, size string, cycles int) (experiment.Spec, error) {
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
	opts, err := baseOptions(o, size, cycles)
	if err != nil {
		return experiment.Spec{}, err
	}
	sp := experiment.NewSpec(append(opts,
		experiment.WithName("Scenario matrix"),
		experiment.WithArbiters(arbiters...),
		experiment.WithPatterns(pats...),
		experiment.WithProcesses(procs...),
		experiment.WithModel(model),
		experiment.WithRates(rs...),
	)...)
	o.ApplyStudy(&sp)
	if err := sp.Validate(); err != nil {
		return experiment.Spec{}, err
	}
	return sp, nil
}

// runSpecFromFlags parses the -run flags into a single-scenario Spec.
func runSpecFromFlags(o experiment.Options, algo, pattern, process, model string,
	rate float64, size string, cycles int, record, replay string) (experiment.Spec, error) {
	opts, err := baseOptions(o, size, cycles)
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
	sp := experiment.NewSpec(opts...)
	o.ApplyStudy(&sp)
	if err := sp.Validate(); err != nil {
		return experiment.Spec{}, err
	}
	return sp, nil
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

// writeJSONL writes the machine-readable Result stream next to the CSV.
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
	return a.writeMetricsSidecar(name, res)
}

// writeMetricsSidecar mirrors a metric-laden Result's telemetry into a
// standalone <name>.metrics.json document, then re-reads it to prove the
// file is loadable — a corrupt sidecar should fail the run that wrote
// it, not the consumer that scrapes it later.
func (a *app) writeMetricsSidecar(name string, res *experiment.Result) error {
	sc := experiment.MetricsSidecarOf(res)
	if sc == nil || a.dir == "" {
		return nil
	}
	path := filepath.Join(a.dir, name+".metrics.json")
	if err := sc.WriteFile(path); err != nil {
		return err
	}
	if _, err := experiment.ReadMetricsSidecarFile(path); err != nil {
		return fmt.Errorf("sidecar verification failed: %w", err)
	}
	a.log.Printf("wrote %s (%d snapshot(s))", path, len(sc.Points))
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

// baseOptions parses -size and -cycles (0 means the figure default)
// into the Spec options -matrix and -run share: the torus, the run
// length, and the seed.
func baseOptions(o experiment.Options, size string, cycles int) ([]experiment.SpecOption, error) {
	w, h, err := parseSize(size)
	if err != nil {
		return nil, err
	}
	if cycles <= 0 {
		cycles = o.TimingCycles()
	}
	return []experiment.SpecOption{
		experiment.WithTopology(w, h),
		experiment.WithCycles(cycles),
		experiment.WithSeed(o.Seed),
	}, nil
}
