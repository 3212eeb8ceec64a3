package experiment

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// reloadSpecs round-trips canned figure Specs exactly as cmd/sweep does:
// serialized as `-emit-spec` writes them, re-loaded as `-spec` loads
// them.
func reloadSpecs(t *testing.T, specs []Spec) []Spec {
	t.Helper()
	data, err := EncodeSpecs(specs) // what -emit-spec prints
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := ParseSpecs(data) // what -spec loads
	if err != nil {
		t.Fatal(err)
	}
	if len(reloaded) != len(specs) {
		t.Fatalf("reloaded %d specs, want %d", len(reloaded), len(specs))
	}
	return reloaded
}

// TestSpecReproducesFigure10s is the acceptance check of the Spec file
// path: the canned Spec, emitted and re-loaded, and run through a
// parallel Runner, prints the same figure table byte for byte as the
// canned Spec run serially (what `sweep -figure 10s` prints).
func TestSpecReproducesFigure10s(t *testing.T) {
	sp, canned := runFigure(t, "10s", 0, 1, shrink(1500, 2))
	res, err := runnerExec(4)(reloadSpecs(t, []Spec{sp})[0])
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Table().CSV(), canned.Table().CSV(); got != want {
		t.Errorf("reloaded spec output differs from the canned spec:\n--- reloaded ---\n%s\n--- canned ---\n%s", got, want)
	}
}

// TestSpecReproducesFigure8 is the standalone-mode half of the same
// acceptance check.
func TestSpecReproducesFigure8(t *testing.T) {
	sp, canned := runFigure(t, "8", 0, 1)
	res, err := runnerExec(4)(reloadSpecs(t, []Spec{sp})[0])
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Table().CSV(), canned.Table().CSV(); got != want {
		t.Errorf("reloaded spec figure 8 differs from the canned spec:\n--- reloaded ---\n%s\n--- canned ---\n%s", got, want)
	}
}

// TestRunnerSerialParallelIdentical: a Result is byte-identical whatever
// the worker count.
func TestRunnerSerialParallelIdentical(t *testing.T) {
	sp := NewSpec(
		WithName("det"),
		WithTopology(4, 4),
		WithArbiters("SPAA-base", "PIM1"),
		WithRates(0.01, 0.02),
		WithCycles(800),
		WithSeed(1),
	)
	serial, err := NewRunner(WithWorkers(1)).Run(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewRunner(WithWorkers(8)).Run(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel result differs from serial:\nserial   %+v\nparallel %+v", serial, parallel)
	}
}

// TestRunnerStreamEvents checks the event protocol a Run delivers to its
// sink: run-start first, then every point and series reported with
// monotone done counts.
func TestRunnerStreamEvents(t *testing.T) {
	sp := quickStandaloneSpec() // 2 arbiters x 3 values
	var events []Event
	res, err := NewRunner(WithWorkers(1), WithEventSink(func(e Event) {
		events = append(events, e)
	})).Run(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events")
	}
	if events[0].Type != EventRunStart || events[0].Total != 6 {
		t.Fatalf("first event = %+v, want run-start with total 6", events[0])
	}
	points, series := 0, 0
	prevDone := 0
	for _, e := range events[1:] {
		switch e.Type {
		case EventPointDone:
			points++
			if e.Done != prevDone+1 {
				t.Errorf("point-done jumped from %d to %d", prevDone, e.Done)
			}
			prevDone = e.Done
			if e.Point == nil || e.Series == "" {
				t.Errorf("point-done without point or series: %+v", e)
			}
		case EventSeriesDone:
			series++
		default:
			t.Errorf("unexpected mid-run event %+v", e)
		}
	}
	if points != 6 || series != 2 {
		t.Errorf("saw %d point-done and %d series-done events, want 6 and 2", points, series)
	}
	if res.Partial {
		t.Error("complete run marked partial")
	}
}

// TestRunnerInvalidSpec: expansion failures surface as errors, not
// panics.
func TestRunnerInvalidSpec(t *testing.T) {
	bad := Spec{Version: SpecVersion}
	if _, err := NewRunner().Run(context.Background(), bad); err == nil {
		t.Error("Run accepted an invalid spec")
	}
}

// TestRunnerCancelBetweenJobs: cancelling after the first finished point
// stops dispatch and returns a partial, well-formed Result.
func TestRunnerCancelBetweenJobs(t *testing.T) {
	sp := NewSpec(
		WithName("cancel"),
		WithTopology(4, 4),
		WithArbiters("SPAA-base"),
		WithRates(0.005, 0.01, 0.015, 0.02, 0.025, 0.03, 0.035, 0.04, 0.045, 0.05),
		WithCycles(3000),
		WithSeed(1),
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner(WithWorkers(2), WithEventSink(func(e Event) {
		if e.Type == EventPointDone {
			cancel()
		}
	}))

	type outcome struct {
		res *Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := r.Run(ctx, sp)
		ch <- outcome{res, err}
	}()
	var out outcome
	select {
	case out = <-ch:
	case <-time.After(60 * time.Second):
		t.Fatal("cancelled run did not return promptly")
	}
	if !errors.Is(out.err, context.Canceled) {
		t.Errorf("error = %v, want context.Canceled", out.err)
	}
	res := out.res
	if res == nil {
		t.Fatal("cancelled run returned no result")
	}
	if !res.Partial {
		t.Error("cancelled result not marked partial")
	}
	if len(res.Series) != 1 {
		t.Fatalf("partial result lost its series shape: %+v", res.Series)
	}
	s := res.Series[0]
	if s.Label != "SPAA-base" || s.Arbiter != "SPAA-base" {
		t.Errorf("partial series identity = %+v", s)
	}
	// The first point-done triggered the cancel, so the sweep cannot have
	// finished; zero kept points is legitimate (the cancelled lower-index
	// job voids the finished higher-index one under the prefix rule).
	if len(s.Points) >= 10 {
		t.Errorf("partial run kept %d of 10 points", len(s.Points))
	}
	// The kept points are the contiguous prefix in rate order.
	for i, p := range s.Points {
		if p.Rate != sp.Workload.Rates[i] {
			t.Errorf("point %d has rate %g, want %g", i, p.Rate, sp.Workload.Rates[i])
		}
	}
}

// TestRunnerCancelInsideSimulation: cancellation interrupts a single
// long simulation mid-run (the in-engine poll), not just between jobs.
func TestRunnerCancelInsideSimulation(t *testing.T) {
	sp := NewSpec(
		WithName("long"),
		WithTopology(4, 4),
		WithArbiters("SPAA-base"),
		WithRates(0.01),
		WithCycles(30_000_000), // far longer than the test will wait
		WithSeed(1),
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	go func() {
		time.Sleep(200 * time.Millisecond)
		cancel()
	}()
	type outcome struct {
		res *Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := NewRunner(WithWorkers(1)).Run(ctx, sp)
		ch <- outcome{res, err}
	}()
	var out outcome
	select {
	case out = <-ch:
	case <-time.After(60 * time.Second):
		t.Fatal("in-simulation cancel did not interrupt the run")
	}
	if !errors.Is(out.err, context.Canceled) {
		t.Errorf("error = %v, want context.Canceled", out.err)
	}
	if out.res == nil || !out.res.Partial || len(out.res.Series[0].Points) != 0 {
		t.Errorf("expected an empty partial result, got %+v", out.res)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}

// runnerOverheadAllocs bounds the Runner's own allocations on one run of
// the standalone-fig8-shaped Spec below: Run's allocations minus those of
// expanding the Spec and calling every job directly. It is the value
// measured before the result cache moved into the Runner (Go 1.24.0), so
// the cache costs an uncached run nothing and simbench's
// allocs_per_node_cycle picks up no executor overhead.
const runnerOverheadAllocs = 42

// TestRunnerOverheadAllocs pins runnerOverheadAllocs on a serial,
// uncached Run of the five Figure 8 kinds at loads 0.5 and 1.0.
func TestRunnerOverheadAllocs(t *testing.T) {
	sp := NewSpec(
		WithName("standalone-fig8"),
		WithArbiters("MCM", "WFA-base", "PIM", "PIM1", "SPAA-base"),
		WithStandaloneSweep(AxisLoad, 0.5, 1.0),
		WithCycles(4000),
	)
	ctx := context.Background()
	r := NewRunner(WithWorkers(1))
	run := testing.AllocsPerRun(3, func() {
		if _, err := r.Run(ctx, sp); err != nil {
			t.Fatal(err)
		}
	})
	direct := testing.AllocsPerRun(3, func() {
		pl, err := sp.expand()
		if err != nil {
			t.Fatal(err)
		}
		for _, pj := range pl.jobs {
			if _, err := pj.input.run(ctx); err != nil {
				t.Fatal(err)
			}
		}
	})
	if over := run - direct; over > runnerOverheadAllocs {
		t.Errorf("Runner.Run allocates %.0f times beyond expanding and running its jobs, want <= %d",
			over, runnerOverheadAllocs)
	}
}
