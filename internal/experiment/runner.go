package experiment

// runner.go is the parallel job pool under Runner.run and
// Coordinator.Run: every sweep is a set of independent simulations (or
// shards), and runJobs fans them across a bounded pool of goroutines.
// Determinism is preserved by construction: each job's entire input —
// setup, seed, rate — is captured by value before dispatch, nothing is
// drawn from shared state while jobs execute, and results are assembled
// by job index. Parallel output is therefore byte-identical to serial
// output.

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// workerCount resolves a requested worker count: 0 means one worker per
// available CPU (GOMAXPROCS), anything below 1 means serial.
func workerCount(n int) int {
	if n == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		return 1
	}
	return n
}

// runJobs executes the jobs on up to workerCount(workers) goroutines and
// returns their results assembled in job order, regardless of completion
// order. With one worker the jobs run serially in the calling goroutine.
// Each job must capture everything it needs by value — in particular its
// seed — so its result cannot depend on scheduling order. The second
// return value is the index of the first job that failed or never ran
// (len(jobs) if every job succeeded); results at indices before it are
// always valid, because jobs are dispatched in index order. Dispatch is
// fail-fast: once any job errors or ctx is cancelled, jobs not yet
// started are abandoned. The returned error is the first failed job's
// own, or ctx's when cancellation alone cut the run short.
func runJobs[T any](ctx context.Context, workers int, jobs []func() (T, error)) ([]T, int, error) {
	results := make([]T, len(jobs))
	errs := make([]error, len(jobs))
	var failed atomic.Bool
	exec := func(i int) {
		results[i], errs[i] = jobs[i]()
		if errs[i] != nil {
			failed.Store(true)
		}
	}
	halted := func() bool { return failed.Load() || ctx.Err() != nil }

	// dispatched counts the jobs handed out; they form a prefix of jobs,
	// and every one of them has finished once the pool drains.
	dispatched := 0
	if workers = min(workerCount(workers), len(jobs)); workers <= 1 {
		for ; dispatched < len(jobs) && !halted(); dispatched++ {
			exec(dispatched)
		}
	} else {
		indices := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range indices {
					exec(i)
				}
			}()
		}
		for ; dispatched < len(jobs) && !halted(); dispatched++ {
			indices <- dispatched
		}
		close(indices)
		wg.Wait()
	}

	for i := 0; i < dispatched; i++ {
		if errs[i] != nil {
			return results, i, errs[i]
		}
	}
	if dispatched < len(jobs) {
		return results, dispatched, ctx.Err()
	}
	return results, dispatched, nil
}
