package experiment

// runner.go is the parallel job pool under Runner.run: every sweep is a
// set of independent simulations, and runJobs fans them across a bounded
// pool of goroutines. Determinism is preserved by construction: each
// job's entire input — the Spec it reads, its router configuration with
// the replication seed, its scenario point — is fixed before dispatch,
// nothing mutable is shared while jobs execute, and each job stores its
// result by index. Parallel output is therefore byte-identical to serial
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

// runJobs runs jobs 0..n-1 on up to workerCount(workers) goroutines,
// handing them out in index order to whichever worker is free; with one
// worker they run serially in the calling goroutine. Each job stores its
// own result by index and must capture everything it needs by value — in
// particular its seed — so its result cannot depend on scheduling order.
// The first return value is the index of the first job that failed or
// never ran (n if every job succeeded); every job before it succeeded,
// because jobs are dispatched in index order. Dispatch is fail-fast: once
// any job errors or ctx is cancelled, jobs not yet started are abandoned.
// The returned error is the first failed job's own, or ctx's when
// cancellation alone cut the run short.
func runJobs(ctx context.Context, workers, n int, job func(i int) error) (int, error) {
	errs := make([]error, n)
	var failed atomic.Bool
	exec := func(i int) {
		if errs[i] = job(i); errs[i] != nil {
			failed.Store(true)
		}
	}
	halted := func() bool { return failed.Load() || ctx.Err() != nil }

	// dispatched counts the jobs handed out; they form a prefix of jobs,
	// and every one of them has finished once the pool drains.
	dispatched := 0
	if workers = min(workerCount(workers), n); workers <= 1 {
		for ; dispatched < n && !halted(); dispatched++ {
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
		for ; dispatched < n && !halted(); dispatched++ {
			indices <- dispatched
		}
		close(indices)
		wg.Wait()
	}

	for i := 0; i < dispatched; i++ {
		if errs[i] != nil {
			return i, errs[i]
		}
	}
	if dispatched < n {
		return dispatched, ctx.Err()
	}
	return dispatched, nil
}
