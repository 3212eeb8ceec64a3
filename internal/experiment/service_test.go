package experiment

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"alpha21364/internal/core"
)

// quickOpts keeps the acceptance runs fast: short simulations, two rate
// points per sweep.
func quickOpts() Options {
	return Options{Quick: true, Seed: 1, CyclesOverride: 1500, MaxRatePoints: 2}
}

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
	o := quickOpts()
	sp, canned := runFigure(t, o, "10s", 0, 1)
	res, err := runnerExec(4)(reloadSpecs(t, []Spec{sp})[0])
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Panel().Table().CSV(), canned.Panel().Table().CSV(); got != want {
		t.Errorf("reloaded spec output differs from the canned spec:\n--- reloaded ---\n%s\n--- canned ---\n%s", got, want)
	}
}

// TestSpecReproducesFigure8 is the standalone-mode half of the same
// acceptance check, in the Figure 8 table layout.
func TestSpecReproducesFigure8(t *testing.T) {
	o := Options{Quick: true, Seed: 1}
	table := func(sp Spec, res *Result) string {
		return Figure8Result{
			LoadFractions:  sp.Standalone.Values,
			SaturationLoad: res.SaturationLoad,
			Curves:         res.Curves(),
		}.Table().CSV()
	}
	sp, canned := runFigure(t, o, "8", 0, 1)
	reloaded := reloadSpecs(t, []Spec{sp})[0]
	res, err := runnerExec(4)(reloaded)
	if err != nil {
		t.Fatal(err)
	}
	if table(reloaded, res) != table(sp, canned) {
		t.Errorf("reloaded spec figure 8 differs from the canned spec")
	}
}

// TestRunnerSerialParallelIdentical: a Result is byte-identical whatever
// the worker count (ElapsedNS excepted).
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
	serial.ElapsedNS, parallel.ElapsedNS = 0, 0
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel result differs from serial:\nserial   %+v\nparallel %+v", serial, parallel)
	}
}

// TestRunnerStreamEvents checks the event protocol: run-start first,
// every point and series reported with monotone done counts, run-done
// last carrying the Result.
func TestRunnerStreamEvents(t *testing.T) {
	sp := quickStandaloneSpec() // 2 arbiters x 3 values
	var events []Event
	for e := range NewRunner(WithWorkers(1)).Stream(context.Background(), sp) {
		events = append(events, e)
	}
	if len(events) == 0 {
		t.Fatal("no events")
	}
	if events[0].Type != EventRunStart || events[0].Total != 6 {
		t.Fatalf("first event = %+v, want run-start with total 6", events[0])
	}
	last := events[len(events)-1]
	if last.Type != EventRunDone || last.Result == nil || last.Err != nil {
		t.Fatalf("last event = %+v, want clean run-done with a result", last)
	}
	points, series := 0, 0
	prevDone := 0
	for _, e := range events[1 : len(events)-1] {
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
			t.Errorf("unexpected mid-stream event %+v", e)
		}
	}
	if points != 6 || series != 2 {
		t.Errorf("saw %d point-done and %d series-done events, want 6 and 2", points, series)
	}
	if last.Result.Partial {
		t.Error("complete run marked partial")
	}
}

// TestRunnerInvalidSpec: expansion failures surface as errors, not
// panics, from both Run and Stream.
func TestRunnerInvalidSpec(t *testing.T) {
	bad := Spec{Version: SpecVersion}
	if _, err := NewRunner().Run(context.Background(), bad); err == nil {
		t.Error("Run accepted an invalid spec")
	}
	var last Event
	for e := range NewRunner().Stream(context.Background(), bad) {
		last = e
	}
	if last.Type != EventRunDone || last.Err == nil {
		t.Errorf("Stream of an invalid spec ended with %+v, want run-done with error", last)
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

// TestRunTimingCtxMatchesRunTiming: an uncancelled supervised run is
// byte-identical to an unsupervised one (the poll events are inert).
func TestRunTimingCtxMatchesRunTiming(t *testing.T) {
	s := TimingSetup{
		Width: 4, Height: 4, Kind: core.KindSPAARotary, Rate: 0.02, Cycles: 2000, Seed: 7,
	}
	plain, err := RunTiming(s)
	if err != nil {
		t.Fatal(err)
	}
	supervised, err := RunTimingCtx(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, supervised) {
		t.Errorf("ctx-supervised run diverged:\nplain      %+v\nsupervised %+v", plain, supervised)
	}
}
