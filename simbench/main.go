// Command simbench is the repository's benchmark. It runs one of two
// fixed simulated jobs through the simulator's public Go API, measures
// the host cost end to end over repeated untraced runs and layer by layer
// in one separate traced run, checks every point's simulated statistics,
// and prints a JSON result object as its last line: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
//
// Build and run it from the repository root with
//
//	bash simbench/run.sh --workload torus4-sweep --seed 1 --seconds 45 --trace 0
//
// README.md in this directory describes the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"alpha21364/internal/experiment"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed of the simulated inputs")
	seconds := fs.Float64("seconds", 10, "host seconds to spend on timed runs")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics of the traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "simbench: need --workload (%s) and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	out, err := bench(w, *seed, *seconds, w.cycles)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	if err := out.print(stdout, w, *seed, *trace == 1); err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

type metric struct {
	name, unit string
	value      float64
}

// outcome is everything one invocation measured and checked.
type outcome struct {
	attempted, failed int
	problems          []string
	endToEnd          []metric
	perLayer          []metric
	walls, refs       []float64 // each timed run's wall and reference seconds, in run order
	reconciled        bool
}

// minRuns is the fewest timed runs an invocation makes, however short
// its time budget.
const minRuns = 3

// reconcileBound is the largest share of the traced wall time the layer
// spans may leave unexplained.
const reconcileBound = 0.02

// workers is the Runner's worker count. The benchmark host has two vCPUs
// shared with other tenants; a second worker would measure their load and
// the scheduler more than the simulator.
const workers = 1

func bench(w benchWorkload, seed uint64, seconds float64, cycles int) (*outcome, error) {
	spec := w.spec(seed, cycles)
	pts, err := jobPoints(spec)
	if err != nil {
		return nil, err
	}
	want, err := expectedDigests(w, seed, cycles)
	if err != nil {
		return nil, err
	}
	alone := isStandalone(spec)
	o := &outcome{}
	fail := func(format string, args ...any) {
		o.failed++
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}

	o.attempted++
	if err := runOracle(spec); err != nil {
		fail("oracle on the first point: %v", err)
	}

	tr, err := traceRun(spec, pts)
	if err != nil {
		return nil, err
	}
	traceRef := referenceSeconds()
	ref := make([]string, len(pts))
	for i, p := range tr.points {
		o.attempted++
		ref[i] = digest(p, alone)
		if want != nil && (i >= len(want) || want[i] != ref[i]) {
			fail("point %d (%v @ %g) differs from expected.json: %s", i, pts[i].kind, pts[i].value, ref[i])
		}
	}

	// One set-up precedes each timed run and one reference job follows it,
	// so set-up and reference samples span the same stretch of host time
	// as the runs.
	var reps []rep
	var setupSecs, setupScaled, setupAllocs []float64
	prevRef := traceRef
	began := time.Now()
	for len(reps) < minRuns || time.Since(began).Seconds() < seconds {
		s, a, err := measureSetup(spec, pts)
		if err != nil {
			return nil, err
		}
		setupSecs, setupAllocs = append(setupSecs, s), append(setupAllocs, a)
		setupScaled = append(setupScaled, s*refNominal/prevRef)
		r := timedRun(spec, pts)
		r.ref = referenceSeconds()
		prevRef = r.ref
		for i := range pts {
			o.attempted++
			switch {
			case !r.done[i]:
				fail("run %d: point %d (%v @ %g) did not finish: %v", len(reps), i, pts[i].kind, pts[i].value, r.err)
			case digest(r.points[i], alone) != ref[i]:
				fail("run %d: point %d (%v @ %g) differs from the traced run: %s", len(reps), i,
					pts[i].kind, pts[i].value, digest(r.points[i], alone))
			}
		}
		reps = append(reps, r)
	}
	for _, r := range reps {
		o.walls = append(o.walls, r.wall)
		o.refs = append(o.refs, r.ref)
	}
	setupAlloc := median(setupAllocs)
	o.endToEnd = []metric{
		{"wall_ref", "ratio", fastestOf(reps, func(r rep) float64 { return r.wall }) / fastestOf(reps, func(r rep) float64 { return r.ref })},
		{"setup_s", "s", median(setupScaled)},
		{"peak_heap_mb", "MB", medianOf(reps, func(r rep) float64 { return r.peakHeapBytes / 1e6 })},
		{"allocs_per_node_cycle", "count", medianOf(reps, func(r rep) float64 { return (r.allocs - setupAlloc) / tr.nodeCycles })},
		{"point_pass_ratio", "ratio", 1 - float64(o.failed)/float64(o.attempted)},
	}
	var unexplained float64
	o.perLayer, unexplained = perLayerMetrics(tr, reps, traceRef, len(pts))
	o.perLayer = append(o.perLayer, metric{"host.setup_s", "s", median(setupSecs)})
	o.reconciled = math.Abs(unexplained) <= reconcileBound*tr.wall
	if !o.reconciled {
		o.problems = append(o.problems, fmt.Sprintf("traced layers leave %.4f s of %.4f s unexplained (bound %.0f%%)",
			unexplained, tr.wall, 100*reconcileBound))
	}
	return o, nil
}

// fastestOf is the smallest value over the timed runs. wall_ref divides
// the fastest run by the fastest reference job: each estimates its own
// cost on an uncontended core, and their ratio also cancels the slower
// drifts of that core's speed (README.md has the data).
func fastestOf(reps []rep, f func(r rep) float64) float64 {
	m := math.Inf(1)
	for _, r := range reps {
		m = math.Min(m, f(r))
	}
	return m
}

func medianOf(reps []rep, f func(r rep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

// perLayerMetrics derives the per-layer metrics from the traced run (and
// the reference job timed right after it) and the Runner's event streams,
// and returns the traced wall seconds the layers leave unexplained.
func perLayerMetrics(tr *traceResult, reps []rep, traceRef float64, points int) ([]metric, float64) {
	overhead := medianOf(reps, func(r rep) float64 { return r.overhead })
	wall := medianOf(reps, func(r rep) float64 { return r.wall })
	wallRef := medianOf(reps, func(r rep) float64 { return r.wall / r.ref })
	nc, cyc := tr.nodeCycles, tr.cycles
	arb := tr.arbitrateTotal()
	routerSelf := tr.edge.ns - tr.sel.ns
	simSelf := tr.run.ns - tr.edge.ns - tr.tick.ns
	standaloneSelf := tr.model.ns - arb.ns
	explained := float64(tr.setup.ns+routerSelf+tr.sel.ns+tr.tick.ns+simSelf+tr.summarize.ns+arb.ns+standaloneSelf)/1e9 + overhead
	unexplained := tr.wall - explained
	c := tr.counters
	ms := []metric{
		{"router.edge_s", "s", tr.edge.seconds()},
		{"router.edge_ns_per_node_cycle", "ns", ratio(float64(tr.edge.ns), nc)},
		{"router.nominations", "count", float64(c.Nominations)},
		{"router.grants", "count", float64(c.Grants)},
		{"router.collisions", "count", float64(c.Collisions)},
		{"router.wasted_spec_reads", "count", float64(c.WastedSpecReads)},
		{"router.drain_entries", "count", float64(c.DrainEntries)},
		{"router.grant_ratio", "ratio", ratio(float64(c.Grants), float64(c.Nominations))},
		{"router.stalls", "count", float64(tr.stalls)},
		{"router.credit_waits", "count", float64(tr.creditWaits)},
		{"router.mean_occupancy", "packets", ratio(tr.occupancy, float64(tr.routers))},
		{"core.select_calls", "count", float64(tr.sel.calls)},
		{"core.select_ns", "ns", ratio(float64(tr.sel.ns), float64(tr.sel.calls))},
		{"core.arbitrate_calls", "count", float64(arb.calls)},
		{"core.arbitrate_ns", "ns", ratio(float64(arb.ns), float64(arb.calls))},
	}
	for _, k := range experiment.Figure8Kinds {
		var s span
		if p := tr.arbitrate[k]; p != nil {
			s = *p
		}
		ms = append(ms, metric{"core.arbitrate_ns." + k.String(), "ns", ratio(float64(s.ns), float64(s.calls))})
	}
	return append(ms, []metric{
		{"core.arb_requests", "count", float64(tr.arb.Requests)},
		{"core.arb_grants", "count", float64(tr.arb.Grants)},
		{"core.arb_conflicts", "count", float64(tr.arb.Conflicts)},
		{"core.match_ratio", "ratio", ratio(float64(tr.arb.Grants), float64(tr.arb.Requests))},
		{"workload.tick_ns_per_cycle", "ns", ratio(float64(tr.tick.ns), cyc)},
		{"workload.injected", "count", float64(c.Injected)},
		{"workload.completed", "count", float64(tr.completed)},
		{"workload.pending_injections", "count", float64(tr.pending)},
		{"sim.self_ns_per_node_cycle", "ns", ratio(float64(simSelf), nc)},
		{"network.link_traversals", "count", float64(tr.linkPackets)},
		{"network.sink_deliveries", "count", float64(tr.delivered)},
		{"network.link_utilization", "ratio", ratio(tr.linkUtil, float64(tr.torusPoints))},
		{"stats.summarize_s", "s", tr.summarize.seconds()},
		{"standalone.self_ns_per_cycle", "ns", ratio(float64(standaloneSelf), cyc)},
		{"experiment.point_s_p50", "s", medianOf(reps, func(r rep) float64 { return median(r.pointSeconds) })},
		{"experiment.point_s_max", "s", medianOf(reps, func(r rep) float64 { return maxOf(r.pointSeconds) })},
		{"experiment.worker_busy_ratio", "ratio", medianOf(reps, func(r rep) float64 { return r.busy / (workers * r.wall) })},
		{"experiment.overhead_s", "s", overhead},
		{"host.wall_s", "s", wall},
		{"host.ref_s", "s", medianOf(reps, func(r rep) float64 { return r.ref })},
		{"host.node_cycles_per_s", "1/s", nc / wall},
		{"host.points_per_s", "1/s", float64(points) / wall},
		{"host.first_point_s", "s", medianOf(reps, func(r rep) float64 { return r.firstPoint })},
		{"trace.wall_s", "s", tr.wall},
		{"trace.setup_s", "s", tr.setup.seconds()},
		{"trace_overhead_ratio", "ratio", ratio(tr.wall/traceRef, wallRef)},
		{"reconcile.unexplained_s", "s", unexplained},
		{"reconcile.unexplained_ratio", "ratio", ratio(unexplained, tr.wall)},
	}...), unexplained
}

// print writes the human-readable report and then, as the last line, the
// JSON result object.
func (o *outcome) print(out io.Writer, w benchWorkload, seed uint64, traced bool) error {
	bw := bufio.NewWriter(out)
	host, err := json.Marshal(hostFacts(seed))
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "simbench: workload %s: %s\n", w.name, w.why)
	fmt.Fprintf(bw, "%d timed runs, each after one timed set-up and before one reference job (wall_ref: fastest run over fastest reference; setup_s: median of set-ups scaled to the reference; others: medians)\n", len(o.walls))
	fmt.Fprintf(bw, "host: %s\n", host)
	fmt.Fprintf(bw, "wall_s per timed run: %.4g\n", o.walls)
	fmt.Fprintf(bw, "reference_s after each run: %.4g\n", o.refs)
	fmt.Fprintln(bw, "end-to-end (untraced runs; simulated statistics are simulated time, all else host time):")
	for _, m := range o.endToEnd {
		fmt.Fprintf(bw, "  %-32s %14.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintln(bw, "per-layer (one serial traced run; host.* and experiment.*: the untraced runs):")
	for _, m := range o.perLayer {
		fmt.Fprintf(bw, "  %-32s %14.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintln(bw, "note: wave arbitration (PIM1, WFA) inside the router has no public seam; its host time stays inside router.edge_s.")
	fmt.Fprintf(bw, "note: router.edge_s includes core.select; reconciliation bound is %.0f%% of trace.wall_s.\n", 100*reconcileBound)
	for _, p := range o.problems {
		fmt.Fprintln(bw, "problem:", p)
	}
	metrics := o.endToEnd
	if traced {
		metrics = o.perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.failed == 0 && o.reconciled, o.attempted, o.failed, map[string]value{}}
	for _, m := range metrics {
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", line)
	return bw.Flush()
}

// hostFacts records what a later comparison must hold equal.
func hostFacts(seed uint64) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"goarch":     runtime.GOARCH,
		"seed":       seed,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// ratio is num/den, or 0 when the layer did no work on this workload.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
