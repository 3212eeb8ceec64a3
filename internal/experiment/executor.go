package experiment

// executor.go is the execution seam of the sweep service: a
// ShardExecutor turns one planned Shard into its Result. The Coordinator
// plans, caches, and merges; *where* a shard simulates is entirely the
// executor's business. localExecutor — the default — runs the shard
// in-process through an ordinary serial Runner, exactly the path the
// Coordinator inlined before the seam existed. internal/fleet implements
// the same interface over HTTP/JSONL against remote sweepd workers, with
// retries and reassignment hidden behind the attempts count, so local
// pool and remote fleet are interchangeable backends with identical
// byte-level output.

import "context"

// ShardExecutor executes one shard-Spec and returns its Result.
//
// The contract mirrors Runner.Run: on success the Result holds exactly
// one point per shard cell, in cell order; on failure or cancellation
// the Result may be nil (nothing completed) or Partial with a contiguous
// prefix of completed points — every point present must be a whole,
// trustworthy measurement, because the Coordinator persists it to the
// cache. sink receives EventPointDone events as simulations finish
// (serialization is the caller's concern; the Coordinator wraps sink in
// its own mutex). attempts reports how many executions were started for
// the shard — 1 for a single clean run, more when the executor retried
// or reassigned it — and must be >= 1 whenever any execution began.
type ShardExecutor interface {
	ExecuteShard(ctx context.Context, sh Shard, sink func(Event)) (res *Result, attempts int, err error)
}

// localExecutor is the in-process backend: each shard runs serially
// through its own Runner in the calling goroutine (shard-level fan-out
// is the Coordinator's worker pool). It never retries — a local failure
// is deterministic, so a second attempt would fail identically.
type localExecutor struct{}

func (localExecutor) ExecuteShard(ctx context.Context, sh Shard, sink func(Event)) (*Result, int, error) {
	res, err := (&Runner{workers: 1, sink: sink}).Run(ctx, sh.Spec)
	return res, 1, err
}
