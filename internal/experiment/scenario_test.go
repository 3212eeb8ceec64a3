package experiment

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"alpha21364/internal/core"
	"alpha21364/internal/router"
	"alpha21364/internal/workload"
)

// runPoint runs a one-point timing Spec through a serial Runner and
// returns its point.
func runPoint(t testing.TB, sp Spec) ResultPoint {
	t.Helper()
	res, err := runnerExec(1)(sp)
	if err != nil {
		t.Fatal(err)
	}
	return res.Series[0].Points[0]
}

// pointRun expands a one-point timing Spec into its job input, whose
// router configuration a caller may edit before runTiming.
func pointRun(t testing.TB, sp Spec) *timingRun {
	t.Helper()
	pl, err := sp.expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.jobs) != 1 {
		t.Fatalf("spec expands to %d jobs, want 1", len(pl.jobs))
	}
	return pl.jobs[0].input.(*timingRun)
}

// TestScenarioMatrixParallelSerialIdentical runs the acceptance-criteria
// matrix — six destination patterns × two arrival processes — for one
// algorithm, in parallel and serially, and requires identical output.
func TestScenarioMatrixParallelSerialIdentical(t *testing.T) {
	patterns := []string{"random", "bit-reversal", "perfect-shuffle", "transpose", "tornado", "hotspot"}
	processes := []string{"bernoulli", "onoff"}
	sp := NewSpec(
		WithTopology(4, 4), WithArbiters("SPAA-rotary"),
		WithPatterns(patterns...), WithProcesses(processes...), WithRates(0.02),
		WithCycles(600), WithSeed(3),
	)

	serial, err := runnerExec(1)(sp)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runnerExec(8)(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Series) != len(patterns)*len(processes) {
		t.Fatalf("matrix returned %d series", len(serial.Series))
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel matrix differs from serial matrix")
	}
	if got, want := serial.ScenarioTable().CSV(), parallel.ScenarioTable().CSV(); got != want {
		t.Fatal("parallel matrix CSV differs from serial")
	}
	for _, s := range serial.Series {
		if len(s.Points) != 1 || s.Points[0].Packets == 0 {
			t.Errorf("%s delivered nothing", s.Label)
		}
	}
}

// TestScenarioMatrixOrder: matrix series come back in matrix order —
// arbiters outermost, then patterns, then processes (defaulting to
// Bernoulli) — with one point per rate, regardless of completion order.
func TestScenarioMatrixOrder(t *testing.T) {
	kinds := []core.Kind{core.KindSPAABase, core.KindPIM1}
	patterns := []string{"random", "tornado"}
	rates := []float64{0.01, 0.02}
	res, err := runnerExec(0)(NewSpec(
		WithTopology(4, 4), WithArbiters(kindNames(kinds)...),
		WithPatterns(patterns...), WithRates(rates...),
		WithCycles(300), WithSeed(1),
	))
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, k := range kinds {
		for _, p := range patterns {
			s := res.Series[i]
			if s.Arbiter != k.String() || s.Pattern != p || s.Process != "bernoulli" {
				t.Fatalf("series %d is %s/%s/%s, want %v/%s/bernoulli", i, s.Arbiter, s.Pattern, s.Process, k, p)
			}
			for ri, r := range rates {
				if s.Points[ri].Rate != r {
					t.Errorf("series %d point %d has rate %g, want %g", i, ri, s.Points[ri].Rate, r)
				}
			}
			i++
		}
	}
}

// TestMatrixSpecCarriesSetup: expansion gives every job of a matrix
// Spec the Spec itself, which runTiming reads for every setting it
// holds, plus what the job adds: its arbiter's default router with the
// replication's seed (scaled when the Spec asks) and its own pattern,
// process, and rate. A replay job adds no scenario point.
func TestMatrixSpecCarriesSetup(t *testing.T) {
	spec := func(opts ...SpecOption) Spec {
		return NewSpec(append([]SpecOption{
			WithTopology(8, 2), WithScaledPipeline(), WithCycles(1234),
			WithWarmupFraction(NoWarmup), WithSeed(99), WithCheck(), WithMetrics(),
			WithEpochCycles(50),
		}, opts...)...)
	}
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"sweep", spec(WithArbiters("SPAA-base", "PIM1"), WithReplications(2), WithMaxOutstanding(64),
			WithModel("datagram"), WithPatterns("random", "tornado"), WithProcesses("bernoulli", "onoff"),
			WithRates(0.01, 0.02))},
		{"recording", spec(WithArbiters("SPAA-base"), WithMaxOutstanding(64),
			WithPatterns("tornado"), WithProcesses("onoff"), WithRates(0.02), WithRecord("run.trace"))},
		{"replay", spec(WithArbiters("SPAA-base", "PIM1"), WithReplications(2), WithReplay("run.trace"))},
	} {
		pl, err := tc.spec.expand()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, j := range pl.jobs {
			tr := j.input.(*timingRun)
			if !reflect.DeepEqual(*tr.spec, tc.spec) {
				t.Errorf("%s: job %q reads %+v, want its Spec %+v", tc.name, j.label, *tr.spec, tc.spec)
			}
			meta := pl.series[j.series].meta
			kind, _ := core.ParseKind(meta.Arbiter)
			want := router.DefaultConfig(kind)
			want.Seed = repSeed(99, j.rep)
			want = want.ScalePipeline()
			if !reflect.DeepEqual(tr.router, want) {
				t.Errorf("%s: job %q runs router\n%+v, want\n%+v", tc.name, j.label, tr.router, want)
			}
			var rate float64
			if w := tc.spec.Workload; w.ReplayFrom == "" {
				rate = w.Rates[j.point]
			}
			if tr.pattern != meta.Pattern || tr.process != meta.Process || tr.rate != rate {
				t.Errorf("%s: job %q runs %s/%s @ %g, want %s/%s @ %g", tc.name, j.label,
					tr.pattern, tr.process, tr.rate, meta.Pattern, meta.Process, rate)
			}
		}
	}
}

// recordSpec is the shared recording scenario of the replay tests.
func recordSpec(dir string, opts ...SpecOption) Spec {
	return NewSpec(append([]SpecOption{
		WithTopology(4, 4), WithArbiters("SPAA-rotary"), WithPatterns("hotspot"),
		WithRates(0.02), WithCycles(1500), WithSeed(11),
		WithRecord(filepath.Join(dir, "run.trace")),
	}, opts...)...)
}

// replaySpec replays the trace at path under arbiter on a torus of the
// given size; opts override or extend it.
func replaySpec(path, arbiter string, size, cycles int, opts ...SpecOption) Spec {
	return NewSpec(append([]SpecOption{
		WithTopology(size, size), WithArbiters(arbiter), WithCycles(cycles), WithSeed(11),
		WithReplay(path),
	}, opts...)...)
}

// TestRecordReplayByteIdentical is the determinism half of the trace
// layer's contract: replaying a recorded run under the same arbiter and
// seed reproduces the recorded run's statistics bit for bit — same
// throughput, same latencies, same per-packet counters.
func TestRecordReplayByteIdentical(t *testing.T) {
	rec := recordSpec(t.TempDir())
	recorded := runPoint(t, rec)
	replayed := runPoint(t, replaySpec(rec.Workload.RecordTo, "SPAA-rotary", 4, 1500))
	// The replay is open-loop, so transaction bookkeeping (Completed)
	// legitimately differs, and it has no rate axis; everything measured
	// from packets must match exactly.
	recorded.Completed, replayed.Completed = 0, 0
	recorded.Rate = 0
	if !reflect.DeepEqual(recorded, replayed) {
		t.Fatalf("replay diverged from the recorded run:\nrecorded %+v\nreplayed %+v", recorded, replayed)
	}
}

// TestReplayCrossArbiterSameInjections is the portability half: replaying
// the trace under a different arbiter re-injects the exact same packet
// sequence (verified by re-recording the replay and comparing traces),
// even though the measured performance differs.
func TestReplayCrossArbiterSameInjections(t *testing.T) {
	dir := t.TempDir()
	rec := recordSpec(dir)
	runPoint(t, rec)
	original, err := workload.ReadTraceFile(rec.Workload.RecordTo)
	if err != nil {
		t.Fatal(err)
	}

	for _, kind := range []string{"SPAA-rotary", "PIM1", "WFA-base"} {
		rerec := filepath.Join(dir, "replay-"+kind+".trace")
		tr := pointRun(t, replaySpec(rec.Workload.RecordTo, kind, 4, 1500))
		// Spec.Validate rejects re-recording a replay, which only this
		// check needs: record straight from the job input.
		w := *tr.spec.Workload
		w.RecordTo = rerec
		tr.spec.Workload = &w
		if _, err := runTiming(context.Background(), tr); err != nil {
			t.Fatal(err)
		}
		got, err := workload.ReadTraceFile(rerec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(original.Events, got.Events) {
			t.Fatalf("%s: replay injected a different packet sequence (%d vs %d events)",
				kind, len(got.Events), len(original.Events))
		}
	}
}

// TestReplayRejectsWrongTorus: a trace recorded on one machine size must
// not silently replay on another.
func TestReplayRejectsWrongTorus(t *testing.T) {
	rec := recordSpec(t.TempDir(), WithCycles(200))
	runPoint(t, rec)
	if _, err := runnerExec(1)(replaySpec(rec.Workload.RecordTo, "SPAA-rotary", 8, 200)); err == nil {
		t.Fatal("replay on the wrong torus size was accepted")
	}
}

// TestReplayMissingTraceFails: a missing trace file is a run error, not a
// silent empty run.
func TestReplayMissingTraceFails(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.trace")
	if _, err := runnerExec(1)(replaySpec(missing, "SPAA-rotary", 4, 100)); err == nil {
		t.Fatal("missing trace accepted")
	}
}

// TestDatagramModelRuns exercises the open-loop model end to end through
// the timing harness.
func TestDatagramModelRuns(t *testing.T) {
	pt := runPoint(t, NewSpec(
		WithTopology(4, 4), WithArbiters("SPAA-base"), WithPatterns("random"),
		WithRates(0.02), WithCycles(1000), WithSeed(1), WithModel("datagram"),
	))
	if pt.Packets == 0 {
		t.Fatal("datagram model delivered nothing")
	}
	// Open loop: every demand becomes exactly one packet, so the
	// transaction counter tracks injections, not protocol round trips.
	if pt.Completed == 0 {
		t.Fatal("datagram model completed no demands")
	}
}

// TestProcessesChangeDynamicsNotLoad: at the same mean rate, the bursty
// process must deliver a comparable packet count (same offered load) to
// Bernoulli's.
func TestProcessesChangeDynamicsNotLoad(t *testing.T) {
	res, err := runnerExec(0)(NewSpec(
		WithTopology(4, 4), WithArbiters("SPAA-rotary"), WithPatterns("random"),
		WithProcesses("bernoulli", "onoff", "deterministic"),
		WithRates(0.01), WithCycles(8000), WithSeed(5),
	))
	if err != nil {
		t.Fatal(err)
	}
	packets := map[string]int64{}
	for _, s := range res.Series {
		packets[s.Process] = s.Points[0].Packets
	}
	bern, burst, det := packets["bernoulli"], packets["onoff"], packets["deterministic"]
	if bern == 0 || burst == 0 || det == 0 {
		t.Fatalf("empty run: bernoulli=%d onoff=%d deterministic=%d", bern, burst, det)
	}
	for name, got := range map[string]int64{"onoff": burst, "deterministic": det} {
		ratio := float64(got) / float64(bern)
		if ratio < 0.7 || ratio > 1.3 {
			t.Errorf("%s delivered %.2fx Bernoulli's packets; offered load should match", name, ratio)
		}
	}
}

// TestRecordWriteFailureSurfaces: an unwritable record path is an error.
func TestRecordWriteFailureSurfaces(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root: unwritable directories are still writable")
	}
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o500); err != nil {
		t.Fatal(err)
	}
	if _, err := runnerExec(1)(recordSpec(filepath.Join(dir, "sub"), WithCycles(100))); err == nil {
		t.Fatal("record into unwritable directory succeeded")
	}
}

// TestBitPatternOnNonPowerOfTwoIsAnError: a bad pattern/torus pairing is
// a setup error, not a mid-simulation panic.
func TestBitPatternOnNonPowerOfTwoIsAnError(t *testing.T) {
	_, err := runnerExec(1)(NewSpec(
		WithTopology(5, 3), WithArbiters("SPAA-rotary"), WithPatterns("bit-reversal"),
		WithRates(0.01), WithCycles(100), WithSeed(1),
	))
	if err == nil {
		t.Fatal("bit-reversal on a 5x3 torus did not error")
	}
}

// TestReplayRejectsDifferentClock: a trace recorded under the scaled
// (2x-fast) pipeline must not replay on the default clock, where its
// clock-phase events would fall between edges and silently vanish.
func TestReplayRejectsDifferentClock(t *testing.T) {
	rec := recordSpec(t.TempDir(), WithCycles(200), WithScaledPipeline())
	runPoint(t, rec)
	if _, err := runnerExec(1)(replaySpec(rec.Workload.RecordTo, "SPAA-rotary", 4, 200)); err == nil {
		t.Fatal("replay on a different router clock was accepted")
	}
	// On the matching clock it replays fine.
	good := replaySpec(rec.Workload.RecordTo, "SPAA-rotary", 4, 200, WithScaledPipeline())
	if _, err := runnerExec(1)(good); err != nil {
		t.Fatalf("replay on the recording clock failed: %v", err)
	}
}
