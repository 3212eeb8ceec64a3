package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"sync"
	"testing"

	"alpha21364/internal/experiment"
)

var update = flag.Bool("update", false, "rewrite expected.json from the current simulator")

// shortCycles are run lengths that keep every workload's full benchmark
// pass under a few seconds.
var shortCycles = map[string]int{
	"torus4-sweep":    800,
	"standalone-fig8": 200,
}

var (
	shortOnce     sync.Once
	shortOutcomes map[string]*outcome
	shortErr      error
)

// shortRuns benchmarks every workload once at its short length with no
// time budget beyond the minimum number of timed runs.
func shortRuns(t *testing.T) map[string]*outcome {
	t.Helper()
	shortOnce.Do(func() {
		shortOutcomes = map[string]*outcome{}
		for _, w := range workloads {
			o, err := bench(w, 7, 0, shortCycles[w.name])
			if err != nil {
				shortErr = err
				return
			}
			shortOutcomes[w.name] = o
		}
	})
	if shortErr != nil {
		t.Fatal(shortErr)
	}
	return shortOutcomes
}

func TestShortRunsPass(t *testing.T) {
	for name, o := range shortRuns(t) {
		if o.failed != 0 || o.attempted == 0 || !o.reconciled {
			t.Errorf("%s: %d of %d points failed, reconciled=%v: %v", name, o.failed, o.attempted, o.reconciled, o.problems)
		}
		if len(o.walls) < minRuns {
			t.Errorf("%s: %d timed runs, want at least %d", name, len(o.walls), minRuns)
		}
	}
}

func TestMetricNamesDeclared(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	declared := map[string]bool{}
	for _, w := range decl.Workloads {
		declared[w.Name] = true
	}
	for _, w := range workloads {
		if !valid.MatchString(w.name) || !declared[w.name] {
			t.Errorf("workload %q is invalid or not declared in BENCHMARK.json", w.name)
		}
	}
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	check := func(group string, want []struct{ Name, Unit string }, got []metric) {
		units := map[string]string{}
		for _, m := range want {
			units[m.Name] = m.Unit
		}
		seen := map[string]bool{}
		for _, m := range got {
			if !valid.MatchString(m.name) {
				t.Errorf("%s metric %q has an invalid name", group, m.name)
			}
			if u, ok := units[m.name]; !ok || u != m.unit {
				t.Errorf("%s metric %q (%s) is not declared with that unit in BENCHMARK.json", group, m.name, m.unit)
			}
			seen[m.name] = true
		}
		for name := range units {
			if !seen[name] {
				t.Errorf("%s metric %q is declared but not emitted", group, name)
			}
		}
	}
	for _, o := range shortRuns(t) {
		check("end_to_end", decl.EndToEnd, o.endToEnd)
		check("per_layer", decl.PerLayer, o.perLayer)
	}
}

// TestWrappersChangeNoStatistic runs each workload traced (timer-wrapped
// policy, generator and kernels, telemetry on) and through an unwrapped
// Runner, and requires every point's statistics to match exactly.
func TestWrappersChangeNoStatistic(t *testing.T) {
	for _, w := range workloads {
		spec := w.spec(3, shortCycles[w.name])
		pts, err := jobPoints(spec)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := traceRun(spec, pts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := experiment.NewRunner(experiment.WithWorkers(1)).Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		var plain []experiment.ResultPoint
		for _, s := range res.Series {
			plain = append(plain, s.Points...)
		}
		if len(plain) != len(pts) {
			t.Fatalf("%s: %d Runner points, want %d", w.name, len(plain), len(pts))
		}
		for i := range pts {
			traced, want := digest(tr.points[i], isStandalone(spec)), digest(plain[i], isStandalone(spec))
			if traced != want {
				t.Errorf("%s point %d: traced %s\nunwrapped %s", w.name, i, traced, want)
			}
		}
		if w.name == "torus4-sweep" && tr.sel.calls == 0 {
			t.Errorf("%s: the SPAA select policy was never timed", w.name)
		}
		if isStandalone(spec) && tr.arbitrateTotal().calls == 0 {
			t.Errorf("%s: no kernel call was timed", w.name)
		}
		if !isStandalone(spec) && (tr.tick.calls == 0 || tr.edge.calls == 0) {
			t.Errorf("%s: generator or router edge never timed", w.name)
		}
	}
}

// TestExpectedDigests pins the default-seed, default-length statistics
// the benchmark checks its runs against. Run with -update to rewrite
// expected.json after an intended change to simulated behaviour.
func TestExpectedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full length")
	}
	got := map[string][]string{}
	for _, w := range workloads {
		spec := w.spec(expectedSeed, w.cycles)
		res, err := experiment.NewRunner().Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range res.Series {
			for _, p := range s.Points {
				got[w.name] = append(got[w.name], digest(p, isStandalone(spec)))
			}
		}
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("expected.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, w := range workloads {
		want, err := expectedDigests(w, expectedSeed, w.cycles)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got[w.name]) {
			t.Fatalf("%s: expected.json has %d points, the run %d (go test -run ExpectedDigests -update rewrites it)",
				w.name, len(want), len(got[w.name]))
		}
		for i := range want {
			if want[i] != got[w.name][i] {
				t.Errorf("%s point %d:\n got  %s\n want %s", w.name, i, got[w.name][i], want[i])
			}
		}
	}
}
