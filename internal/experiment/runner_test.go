package experiment

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// runnerOpts returns small-scale figure options.
func runnerOpts() Options {
	return Options{Quick: true, CyclesOverride: 1500, MaxRatePoints: 2, Seed: 3}
}

// runnerExec returns an executor running each Spec through a Runner with
// the given worker count — the shape CollectDataset takes.
func runnerExec(workers int) func(Spec) (*Result, error) {
	r := NewRunner(WithWorkers(workers))
	return func(sp Spec) (*Result, error) { return r.Run(context.Background(), sp) }
}

// runFigure runs one canned figure panel through a Runner with the given
// worker count and zeroes the one nondeterministic field.
func runFigure(t *testing.T, o Options, figure string, panel, workers int) (Spec, *Result) {
	t.Helper()
	specs, err := FigureSpecs(figure, o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runnerExec(workers)(specs[panel])
	if err != nil {
		t.Fatal(err)
	}
	res.ElapsedNS = 0
	return specs[panel], res
}

// TestParallelSerialIdentical is the runner's core guarantee: a figure
// fanned across eight workers produces byte-identical results to the
// same figure run serially, for a timing panel and both standalone
// sweeps. Run with -race, this also exercises the pool for data races.
func TestParallelSerialIdentical(t *testing.T) {
	for _, figure := range []string{"10s", "8", "9"} {
		_, serial := runFigure(t, runnerOpts(), figure, 0, 1)
		_, parallel := runFigure(t, runnerOpts(), figure, 0, 8)
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("figure %s diverged between serial and 8-worker runs:\n%+v\n%+v", figure, serial, parallel)
		}
		if s, p := serial.Table().CSV(), parallel.Table().CSV(); s != p {
			t.Errorf("figure %s CSV not byte-identical:\n%s\n%s", figure, s, p)
		}
	}
}

func TestWorkerCount(t *testing.T) {
	if got := workerCount(0); got < 1 {
		t.Errorf("default workerCount = %d, want >= 1", got)
	}
	if got := workerCount(1); got != 1 {
		t.Errorf("workers 1 -> %d", got)
	}
	if got := workerCount(-3); got != 1 {
		t.Errorf("workers -3 -> %d, want serial", got)
	}
	if got := workerCount(5); got != 5 {
		t.Errorf("workers 5 -> %d", got)
	}
}

// TestRunJobsOrderAndError checks the serial error contract: the
// reported failure is the lowest-indexed failing job, and every job
// before it stored its result.
func TestRunJobsOrderAndError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		results := make([]int, 9)
		firstBad, err := runJobs(context.Background(), workers, len(results), func(i int) error {
			if i == 5 || i == 7 {
				return fmt.Errorf("job %d: %w", i, boom)
			}
			results[i] = i * i
			return nil
		})
		if firstBad != 5 {
			t.Errorf("workers=%d: firstBad = %d, want 5", workers, firstBad)
		}
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: err = %v", workers, err)
		}
		for i := 0; i < firstBad; i++ {
			if results[i] != i*i {
				t.Errorf("workers=%d: results[%d] = %d, want %d", workers, i, results[i], i*i)
			}
		}
	}
}

// TestRunJobsProgress checks the progress stream a Runner builds over
// runJobs: one point-done event per job, serialized, with a monotonically
// increasing done count, the run's total, and each job's label once.
func TestRunJobsProgress(t *testing.T) {
	sp := quickStandaloneSpec() // 2 arbiters x 3 values
	for _, workers := range []int{1, 4} {
		var calls int
		var labels []string
		r := NewRunner(WithWorkers(workers), WithEventSink(func(e Event) {
			if e.Type != EventPointDone {
				return
			}
			calls++
			if e.Done != calls {
				t.Errorf("workers=%d: done = %d on call %d", workers, e.Done, calls)
			}
			if e.Total != 6 {
				t.Errorf("workers=%d: total = %d, want 6", workers, e.Total)
			}
			labels = append(labels, e.Label)
		}))
		if _, err := r.Run(context.Background(), sp); err != nil {
			t.Fatal(err)
		}
		if calls != 6 {
			t.Errorf("workers=%d: %d progress calls, want 6", workers, calls)
		}
		seen := map[string]bool{}
		for _, l := range labels {
			if seen[l] {
				t.Errorf("workers=%d: label %q reported twice", workers, l)
			}
			seen[l] = true
		}
	}
}

// TestRunJobsHonorsWorkerBound asserts that runJobs never executes more
// jobs at once than its worker count.
func TestRunJobsHonorsWorkerBound(t *testing.T) {
	var cur, peak atomic.Int32
	job := func(int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		return nil
	}
	if _, err := runJobs(context.Background(), 2, 16, job); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("peak concurrent jobs = %d, want <= 2", p)
	}
}

// TestRunJobsFailFast checks that jobs after an observed failure are
// never started, and that a cancelled context stops dispatch with the
// context's error.
func TestRunJobsFailFast(t *testing.T) {
	var executed atomic.Int32
	failAt := func(bad int) func(int) error {
		return func(i int) error {
			executed.Add(1)
			if i == bad {
				return errors.New("fail")
			}
			time.Sleep(time.Millisecond)
			return nil
		}
	}
	ctx := context.Background()

	executed.Store(0)
	if firstBad, err := runJobs(ctx, 1, 10, failAt(2)); err == nil || firstBad != 2 {
		t.Fatalf("serial: firstBad = %d, err = %v", firstBad, err)
	}
	if got := executed.Load(); got != 3 {
		t.Errorf("serial executed %d jobs, want 3 (0..2)", got)
	}

	executed.Store(0)
	if firstBad, err := runJobs(ctx, 4, 50, failAt(0)); err == nil || firstBad != 0 {
		t.Fatalf("parallel: firstBad = %d, err = %v", firstBad, err)
	}
	// The dispatcher stops handing out work once the failure is observed.
	// Exactly how many in-flight jobs still run depends on scheduling, so
	// only assert the regression-revealing bound: not all of them.
	if got := executed.Load(); got == 50 {
		t.Error("parallel ran all 50 jobs despite job 0 failing immediately")
	}

	executed.Store(0)
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if firstBad, err := runJobs(cancelled, 4, 5, failAt(-1)); !errors.Is(err, context.Canceled) || firstBad != 0 {
		t.Fatalf("cancelled: firstBad = %d, err = %v", firstBad, err)
	}
	if got := executed.Load(); got != 0 {
		t.Errorf("cancelled context still ran %d jobs", got)
	}
}

// TestCollectDatasetParallelMatchesSerial runs the whole evaluation
// pipeline through a serial and an 8-worker executor at tiny scale and
// requires identical datasets.
func TestCollectDatasetParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset collection is expensive")
	}
	o := Options{Quick: true, CyclesOverride: 1000, MaxRatePoints: 2, Seed: 2}
	serial, err := CollectDataset(o, runnerExec(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := CollectDataset(o, runnerExec(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("dataset diverged between serial and 8-worker collection")
	}
}

// TestCollectDatasetStopsAtFirstFailure: an executor error aborts the
// collection at that Spec and names it.
func TestCollectDatasetStopsAtFirstFailure(t *testing.T) {
	boom := errors.New("boom")
	var ran []string
	_, err := CollectDataset(runnerOpts(), func(sp Spec) (*Result, error) {
		ran = append(ran, sp.Name)
		if sp.Name == "Figure 9" {
			return nil, boom
		}
		return &Result{Spec: sp}, nil
	})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "Figure 9") {
		t.Fatalf("err = %v, want the executor's error naming the spec", err)
	}
	if want := []string{"Figure 8", "Figure 9"}; !reflect.DeepEqual(ran, want) {
		t.Errorf("executor saw %q, want %q", ran, want)
	}
}
