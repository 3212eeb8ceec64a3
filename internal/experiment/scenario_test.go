package experiment

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"alpha21364/internal/core"
	"alpha21364/internal/workload"
)

// TestScenarioMatrixParallelSerialIdentical runs the acceptance-criteria
// matrix — six destination patterns × two arrival processes — for one
// algorithm, in parallel and serially, and requires identical output.
func TestScenarioMatrixParallelSerialIdentical(t *testing.T) {
	base := TimingSetup{Width: 4, Height: 4, Cycles: 600, Seed: 3}
	kinds := []core.Kind{core.KindSPAARotary}
	patterns := []string{"random", "bit-reversal", "perfect-shuffle", "transpose", "tornado", "hotspot"}
	processes := []string{"bernoulli", "onoff"}
	rates := []float64{0.02}
	sp := MatrixSpec(base, kinds, patterns, processes, rates)

	serial, err := runnerExec(1)(sp)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runnerExec(8)(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Series) != len(kinds)*len(patterns)*len(processes) {
		t.Fatalf("matrix returned %d series", len(serial.Series))
	}
	serial.ElapsedNS, parallel.ElapsedNS = 0, 0
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel matrix differs from serial matrix")
	}
	if got, want := serial.ScenarioTable().CSV(), parallel.ScenarioTable().CSV(); got != want {
		t.Fatal("parallel matrix CSV differs from serial")
	}
	for _, s := range serial.Series {
		if len(s.Points) != len(rates) || s.Points[0].Packets == 0 {
			t.Errorf("%s delivered nothing", s.Label)
		}
	}
}

// TestScenarioMatrixOrder: MatrixSpec series come back in matrix order —
// kinds outermost, then patterns, then processes (defaulting to
// Bernoulli) — with one point per rate, regardless of completion order.
func TestScenarioMatrixOrder(t *testing.T) {
	base := TimingSetup{Width: 4, Height: 4, Cycles: 300, Seed: 1}
	kinds := []core.Kind{core.KindSPAABase, core.KindPIM1}
	patterns := []string{"random", "tornado"}
	rates := []float64{0.01, 0.02}
	res, err := runnerExec(0)(MatrixSpec(base, kinds, patterns, nil, rates))
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

// TestMatrixSpecCarriesSetup: every TimingSetup field with a Spec home
// survives MatrixSpec and expansion into every job's setup, so a caller
// who asks for telemetry, sharding, or any other setting gets it. Only
// the axes (Kind, Pattern, Process, Rate) come from MatrixSpec's other
// arguments.
func TestMatrixSpecCarriesSetup(t *testing.T) {
	sweep := TimingSetup{
		Width: 8, Height: 2, MaxOutstanding: 64, ScalePipeline: true, Cycles: 1234,
		Model: "datagram", WarmupFraction: NoWarmup, Seed: 99, Check: true, Metrics: true,
		EpochCycles: 50, TorusShards: 2,
	}
	recording, replay := sweep, sweep
	recording.RecordTo = "run.trace"
	replay.Model, replay.ReplayFrom = "", "run.trace" // a replay fixes the model too
	kinds := []core.Kind{core.KindSPAABase, core.KindPIM1}
	for _, tc := range []struct {
		name                string
		base                TimingSetup
		kinds               []core.Kind
		patterns, processes []string
		rates               []float64
	}{
		{"sweep", sweep, kinds, []string{"random", "tornado"}, []string{"bernoulli", "onoff"}, []float64{0.01, 0.02}},
		{"recording", recording, kinds[:1], []string{"tornado"}, []string{"onoff"}, []float64{0.02}},
		{"replay", replay, kinds, nil, nil, nil},
	} {
		pl, err := MatrixSpec(tc.base, tc.kinds, tc.patterns, tc.processes, tc.rates).expand()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, j := range pl.jobs {
			got := *j.setup
			got.Kind, got.Pattern, got.Process, got.Rate = 0, "", "", 0
			if got != tc.base {
				t.Errorf("%s: job %q runs with\n%+v, want\n%+v", tc.name, j.label, got, tc.base)
			}
		}
	}
}

// recordSetup is the shared recording scenario of the replay tests.
func recordSetup(dir string) TimingSetup {
	return TimingSetup{
		Width: 4, Height: 4, Kind: core.KindSPAARotary, Pattern: "hotspot",
		Rate: 0.02, Cycles: 1500, Seed: 11,
		RecordTo: filepath.Join(dir, "run.trace"),
	}
}

// TestRecordReplayByteIdentical is the determinism half of the trace
// layer's contract: replaying a recorded run under the same arbiter and
// seed reproduces the recorded run's statistics bit for bit — same
// throughput, same latencies, same per-packet counters.
func TestRecordReplayByteIdentical(t *testing.T) {
	dir := t.TempDir()
	rec := recordSetup(dir)
	recorded, err := RunTiming(rec)
	if err != nil {
		t.Fatal(err)
	}

	replay := TimingSetup{
		Width: rec.Width, Height: rec.Height, Kind: rec.Kind,
		Cycles: rec.Cycles, Seed: rec.Seed,
		ReplayFrom: rec.RecordTo,
	}
	replayed, err := RunTiming(replay)
	if err != nil {
		t.Fatal(err)
	}
	// The replay is open-loop, so transaction bookkeeping (Completed)
	// legitimately differs; everything measured from packets must match
	// exactly.
	recorded.Completed, replayed.Completed = 0, 0
	recorded.OfferedRate, replayed.OfferedRate = 0, 0
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
	rec := recordSetup(dir)
	if _, err := RunTiming(rec); err != nil {
		t.Fatal(err)
	}
	original, err := workload.ReadTraceFile(rec.RecordTo)
	if err != nil {
		t.Fatal(err)
	}

	for _, kind := range []core.Kind{core.KindSPAARotary, core.KindPIM1, core.KindWFABase} {
		rerec := filepath.Join(dir, "replay-"+kind.String()+".trace")
		replay := TimingSetup{
			Width: rec.Width, Height: rec.Height, Kind: kind,
			Cycles: rec.Cycles, Seed: rec.Seed,
			ReplayFrom: rec.RecordTo,
			RecordTo:   rerec,
		}
		if _, err := RunTiming(replay); err != nil {
			t.Fatal(err)
		}
		got, err := workload.ReadTraceFile(rerec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(original.Events, got.Events) {
			t.Fatalf("%v: replay injected a different packet sequence (%d vs %d events)",
				kind, len(got.Events), len(original.Events))
		}
	}
}

// TestReplayRejectsWrongTorus: a trace recorded on one machine size must
// not silently replay on another.
func TestReplayRejectsWrongTorus(t *testing.T) {
	dir := t.TempDir()
	rec := recordSetup(dir)
	rec.Cycles = 200
	if _, err := RunTiming(rec); err != nil {
		t.Fatal(err)
	}
	bad := TimingSetup{
		Width: 8, Height: 8, Kind: core.KindSPAARotary, Cycles: 200, Seed: 1,
		ReplayFrom: rec.RecordTo,
	}
	if _, err := RunTiming(bad); err == nil {
		t.Fatal("replay on the wrong torus size was accepted")
	}
}

// TestReplayMissingTraceFails: a missing trace file is a run error, not a
// silent empty run.
func TestReplayMissingTraceFails(t *testing.T) {
	s := TimingSetup{
		Width: 4, Height: 4, Kind: core.KindSPAARotary, Cycles: 100, Seed: 1,
		ReplayFrom: filepath.Join(t.TempDir(), "missing.trace"),
	}
	if _, err := RunTiming(s); err == nil {
		t.Fatal("missing trace accepted")
	}
}

// TestDatagramModelRuns exercises the open-loop model end to end through
// the timing harness.
func TestDatagramModelRuns(t *testing.T) {
	res, err := RunTiming(TimingSetup{
		Width: 4, Height: 4, Kind: core.KindSPAABase, Pattern: "random",
		Rate: 0.02, Cycles: 1000, Seed: 1, Model: "datagram",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets == 0 {
		t.Fatal("datagram model delivered nothing")
	}
	// Open loop: every demand becomes exactly one packet, so the
	// transaction counter tracks injections, not protocol round trips.
	if res.Completed == 0 {
		t.Fatal("datagram model completed no demands")
	}
}

// TestProcessesChangeDynamicsNotLoad: at the same mean rate, the bursty
// process must deliver a comparable packet count (same offered load) to
// Bernoulli's.
func TestProcessesChangeDynamicsNotLoad(t *testing.T) {
	run := func(process string) int64 {
		res, err := RunTiming(TimingSetup{
			Width: 4, Height: 4, Kind: core.KindSPAARotary, Pattern: "random",
			Rate: 0.01, Cycles: 8000, Seed: 5, Process: process,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Packets
	}
	bern := run("bernoulli")
	burst := run("onoff")
	det := run("deterministic")
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
	s := recordSetup(filepath.Join(dir, "sub"))
	s.Cycles = 100
	if _, err := RunTiming(s); err == nil {
		t.Fatal("record into unwritable directory succeeded")
	}
}

// TestBitPatternOnNonPowerOfTwoIsAnError: a bad pattern/torus pairing is
// a setup error, not a mid-simulation panic.
func TestBitPatternOnNonPowerOfTwoIsAnError(t *testing.T) {
	_, err := RunTiming(TimingSetup{
		Width: 5, Height: 3, Kind: core.KindSPAARotary, Pattern: "bit-reversal",
		Rate: 0.01, Cycles: 100, Seed: 1,
	})
	if err == nil {
		t.Fatal("bit-reversal on a 5x3 torus did not error")
	}
}

// TestReplayRejectsDifferentClock: a trace recorded under the scaled
// (2x-fast) pipeline must not replay on the default clock, where its
// clock-phase events would fall between edges and silently vanish.
func TestReplayRejectsDifferentClock(t *testing.T) {
	dir := t.TempDir()
	rec := recordSetup(dir)
	rec.Cycles = 200
	rec.ScalePipeline = true
	if _, err := RunTiming(rec); err != nil {
		t.Fatal(err)
	}
	bad := TimingSetup{
		Width: rec.Width, Height: rec.Height, Kind: rec.Kind, Cycles: 200, Seed: 1,
		ReplayFrom: rec.RecordTo,
	}
	if _, err := RunTiming(bad); err == nil {
		t.Fatal("replay on a different router clock was accepted")
	}
	// On the matching clock it replays fine.
	good := bad
	good.ScalePipeline = true
	if _, err := RunTiming(good); err != nil {
		t.Fatalf("replay on the recording clock failed: %v", err)
	}
}
