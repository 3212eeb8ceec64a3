package experiment

// coordinator.go is the service layer of the sweep subsystem: a
// Coordinator turns the one-shot Runner into a long-lived scheduler. One
// run plans the spec's grid into shard-Specs (shard.go), serves every
// cell already present in the content-addressed cache (SpecHash +
// internal/cache) without simulating, fans the missing shards across the
// existing worker pool, persists each shard's completed points to the
// cache as it finishes — atomically, whole points only — and merges
// everything back into the exact byte stream the monolithic Runner
// produces. A killed run therefore resumes by re-running only its
// missing points, and a repeated run of the same semantic spec is a pure
// cache read.

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"alpha21364/internal/cache"
)

// Coordinator schedules sweeps over shards and a result cache. The zero
// value runs monolithically equivalent plans with default workers;
// construct with NewCoordinator. A Coordinator may be reused for many
// runs, but Stats reports only the most recent one, so concurrent Run
// calls should use separate Coordinators.
type Coordinator struct {
	workers int
	shards  int
	store   *cache.Store
	sink    func(Event)

	mu    sync.Mutex
	stats CoordinatorStats
}

// CoordinatorStats summarizes one Coordinator.Run.
type CoordinatorStats struct {
	// TotalPoints is the grid size: series × points (replications fold
	// into their point).
	TotalPoints int
	// CachedPoints is how many cells were served from the cache without
	// simulating.
	CachedPoints int
	// SimulatedPoints is how many cells were simulated (and, with a
	// cache, persisted) by this run.
	SimulatedPoints int
	// Shards is how many shard-Specs the missing cells were planned into.
	Shards int
	// ElapsedNS is the run's wall-clock duration.
	ElapsedNS int64
	// ShardDurationsNS is each shard's wall-clock duration, in completion
	// order; the service layer feeds its latency histogram from it.
	ShardDurationsNS []int64
}

// CoordinatorOption configures a Coordinator.
type CoordinatorOption func(*Coordinator)

// NewCoordinator returns a Coordinator with one worker per CPU, no cache,
// and one shard per point.
func NewCoordinator(opts ...CoordinatorOption) *Coordinator {
	c := &Coordinator{}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// WithCoordinatorWorkers bounds how many shards run concurrently: 0
// means one per available CPU, 1 (or any negative value) runs serially.
// Results are byte-identical regardless.
func WithCoordinatorWorkers(n int) CoordinatorOption {
	return func(c *Coordinator) { c.workers = n }
}

// WithShards targets a shard count for each run's missing cells: the
// planner produces at most n shards, and a shard never spans two series.
// 0 — the default — plans one shard per point: maximum scheduling
// freedom and the finest resume granularity.
func WithShards(n int) CoordinatorOption {
	return func(c *Coordinator) { c.shards = n }
}

// WithCache attaches a content-addressed result store: cells already
// present are served without simulating, and freshly simulated points
// are persisted as their shard completes. Specs that record or replay
// traces bypass the cache (a file path does not content-address the
// trace behind it).
func WithCache(store *cache.Store) CoordinatorOption {
	return func(c *Coordinator) { c.store = store }
}

// WithCoordinatorEventSink observes the run's progress events: run-start
// (Total counts simulations to run, cached cells excluded), point-done
// per finished simulation, and run-done with the merged Result. Calls
// are serialized.
func WithCoordinatorEventSink(fn func(Event)) CoordinatorOption {
	return func(c *Coordinator) { c.sink = fn }
}

// Stats returns the statistics of the most recent Run.
func (c *Coordinator) Stats() CoordinatorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.ShardDurationsNS = append([]int64(nil), c.stats.ShardDurationsNS...)
	return s
}

// specCacheable reports whether the spec's results may be cached: trace
// record/replay specs are excluded, because the cache key cannot
// content-address a trace file behind a path (replay) and a cache hit
// would silently skip the recording side effect (record).
func specCacheable(s Spec) bool {
	return s.Workload == nil || (s.Workload.RecordTo == "" && s.Workload.ReplayFrom == "")
}

// cachedCell is one cache hit, decoded.
type cachedCell struct {
	cell  ShardCell
	point ResultPoint
}

// loadCached reads and strictly decodes every cached cell of the key
// that falls inside the grid. A corrupt cell is an error, not a miss:
// serving half a cache would silently break the byte-identity contract.
func loadCached(store *cache.Store, key string, a gridAxes) ([]cachedCell, error) {
	cells, err := store.Cells(key)
	if err != nil {
		return nil, err
	}
	var out []cachedCell
	for _, cl := range cells {
		if cl.Series >= a.seriesCount() || cl.Point >= a.points {
			continue // stale debris from an older (differently shaped) grid: unreachable under one key, skip
		}
		data, ok, err := store.Get(key, cl)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		var pt ResultPoint
		dec := strictDecoder(data)
		if err := dec.Decode(&pt); err != nil {
			return nil, fmt.Errorf("experiment: cache cell s%d p%d is corrupt: %w (clear the cache directory)",
				cl.Series, cl.Point, err)
		}
		out = append(out, cachedCell{cell: ShardCell{Series: cl.Series, Point: cl.Point}, point: pt})
	}
	return out, nil
}

// Run executes the spec through the shard/cache/merge pipeline and
// returns the assembled Result — byte-identical to Runner.Run on the
// same spec (ElapsedNS excepted). On failure or cancellation the Result
// is non-nil, marked Partial, holds every completed cell, and — with a
// cache attached — every completed cell has already been persisted, so
// a subsequent Run resumes by simulating only the missing ones.
func (c *Coordinator) Run(ctx context.Context, spec Spec) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	pl, err := spec.expand()
	if err != nil {
		return nil, err
	}
	a := spec.axes()

	// Serve what the cache already holds.
	var key string
	cacheable := c.store != nil && specCacheable(spec)
	merged := make(map[ShardCell]ResultPoint)
	if cacheable {
		key, err = SpecHash(spec)
		if err != nil {
			return nil, err
		}
		hits, err := loadCached(c.store, key, a)
		if err != nil {
			return nil, err
		}
		for _, h := range hits {
			merged[h.cell] = h.point
		}
		if meta, err := EncodeSpec(hashableSpec(spec)); err == nil {
			// Metadata is best-effort debugging aid; the run does not
			// depend on it.
			_ = c.store.PutSpec(key, meta)
		}
	}

	// Plan the missing cells into shards.
	var missing []ShardCell
	for _, cl := range a.allCells() {
		if _, ok := merged[cl]; !ok {
			missing = append(missing, cl)
		}
	}
	shards := planShardsOver(spec, a, missing, c.shards)
	totalSims := len(missing) * pl.reps

	c.mu.Lock()
	c.stats = CoordinatorStats{
		TotalPoints:  a.seriesCount() * a.points,
		CachedPoints: len(merged),
		Shards:       len(shards),
	}
	c.mu.Unlock()

	emit := c.sink
	if emit == nil {
		emit = func(Event) {}
	}
	emit(Event{Type: EventRunStart, Total: totalSims, Label: spec.title()})

	// A serialized wrapper re-counts every shard's point-done events
	// against the coordinator-wide totals.
	var progressMu sync.Mutex
	done := 0
	shardSink := func(e Event) {
		if e.Type != EventPointDone {
			return
		}
		progressMu.Lock()
		done++
		emit(Event{
			Type: EventPointDone, Done: done, Total: totalSims,
			Label: e.Label, Series: e.Series, Point: e.Point,
		})
		progressMu.Unlock()
	}

	// Fan the shards across the pool; each shard runs through its own
	// serial Runner and persists its completed points — whole points
	// only — whether it finished or was cut short.
	var freshMu sync.Mutex
	simulated := 0
	jobs := make([]func() (*Result, error), len(shards))
	for i, sh := range shards {
		jobs[i] = func() (*Result, error) {
			shardStart := time.Now()
			res, runErr := (&Runner{workers: 1, sink: shardSink}).Run(ctx, sh.Spec)
			shardNS := time.Since(shardStart).Nanoseconds()
			c.mu.Lock()
			c.stats.ShardDurationsNS = append(c.stats.ShardDurationsNS, shardNS)
			c.mu.Unlock()
			if res == nil {
				return nil, runErr
			}
			pts := flattenPoints(res)
			if len(pts) > len(sh.Cells) {
				return nil, fmt.Errorf("experiment: shard returned %d points for %d cells", len(pts), len(sh.Cells))
			}
			var firstErr error
			freshMu.Lock()
			for j, pt := range pts {
				merged[sh.Cells[j]] = pt
				simulated++
				if cacheable {
					data, err := json.Marshal(pt)
					if err == nil {
						err = c.store.Put(key, cache.Cell{Series: sh.Cells[j].Series, Point: sh.Cells[j].Point}, data)
					}
					if err != nil && firstErr == nil {
						firstErr = err
					}
				}
			}
			freshMu.Unlock()
			if runErr != nil {
				return res, runErr
			}
			return res, firstErr
		}
	}
	_, _, err = runJobs(ctx, c.workers, jobs)
	if cerr := ctx.Err(); cerr != nil {
		// The context's own error outranks the per-shard symptom it caused.
		err = cerr
	}

	res := pl.mergeCells(merged)
	if err != nil {
		res.Partial = true
	}
	res.ElapsedNS = time.Since(start).Nanoseconds()

	c.mu.Lock()
	c.stats.SimulatedPoints = simulated
	c.stats.ElapsedNS = res.ElapsedNS
	c.mu.Unlock()

	progressMu.Lock()
	emit(Event{Type: EventRunDone, Done: done, Total: totalSims, Result: res, Err: err})
	progressMu.Unlock()
	return res, err
}
