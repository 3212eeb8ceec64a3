package experiment

// service.go is the execution half of the Scenario/Runner API: a Runner
// turns a Spec into a Result under a context, fanning the expanded job
// grid across a bounded worker pool and delivering typed events —
// run-start, point-done, series-done — to its event sink (WithEventSink)
// as simulations finish; Run itself returns the Result and the error.
// It is the one way to execute experiments: cmd/sweep's figure, matrix,
// run, spec, and -verify modes all hand their Specs to a Runner.
//
// With a result cache attached (WithCache), the same loop serves and
// fills it: cells — one grid point with all of its replications — that
// the store already holds under the Spec's content address (SpecHash)
// are served without simulating, and every other cell is persisted the
// moment its last replication finishes. A killed run therefore resumes
// by simulating only its missing cells, and a repeat run of the same
// semantic Spec is a pure cache read.
//
// Determinism: jobs are fully fixed at expansion time and assembled by
// index, so a Result is byte-identical whatever the worker count and
// whether or not a cache served it. A Result holds no wall-clock field.
// Cancellation: the context is checked between jobs and polled inside
// each timing simulation every cancelPollCycles router cycles, so Run
// returns promptly with a partial, well-formed Result.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"

	"alpha21364/internal/cache"
)

// EventType discriminates Runner events.
type EventType string

const (
	// EventRunStart opens a run; Total is the number of simulations the
	// run will perform and Cached the grid points served from the cache
	// instead.
	EventRunStart EventType = "run-start"
	// EventPointDone reports one finished simulation with its measurement.
	EventPointDone EventType = "point-done"
	// EventSeriesDone reports that every simulation of one series
	// finished; a series served wholly from the cache reports none.
	EventSeriesDone EventType = "series-done"
)

// Event is one element of a Runner's progress stream, delivered to the
// sink WithEventSink installs. Done/Total count finished simulations out
// of those the run performs. Events are delivered serialized (never
// concurrently) but in completion order, not job order.
type Event struct {
	Type  EventType `json:"type"`
	Done  int       `json:"done,omitempty"`
	Total int       `json:"total,omitempty"`
	// Cached is the number of grid points served from the result cache
	// (run-start only).
	Cached int `json:"cached,omitempty"`
	// Label identifies the finished job (point-done) or the run (run-start).
	Label string `json:"label,omitempty"`
	// Series is the owning series' label (point-done, series-done).
	Series string `json:"series,omitempty"`
	// Point carries the measurement of a point-done event.
	Point *ResultPoint `json:"point,omitempty"`
}

// Runner executes Specs. The zero value is unusable; construct with
// NewRunner. A Runner is stateless between runs and safe for concurrent
// use by multiple goroutines.
type Runner struct {
	workers int
	sink    func(Event)
	store   *cache.Store
}

// RunnerOption configures a Runner.
type RunnerOption func(*Runner)

// NewRunner returns a Runner with one worker per CPU and no cache.
func NewRunner(opts ...RunnerOption) *Runner {
	r := &Runner{}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// WithWorkers bounds how many simulations run concurrently: 0 means one
// per available CPU, 1 (or any negative value) runs serially. Results
// are byte-identical regardless of the worker count.
func WithWorkers(n int) RunnerOption {
	return func(r *Runner) { r.workers = n }
}

// WithEventSink observes every event of every Run on this Runner. Calls
// are serialized; the sink must not block for long, as it is invoked
// from worker goroutines.
func WithEventSink(fn func(Event)) RunnerOption {
	return func(r *Runner) { r.sink = fn }
}

// WithCache attaches a content-addressed result store (nil detaches
// it): cells already present are served without simulating, and each
// freshly simulated cell is persisted as its last replication finishes.
// Specs that record or replay traces bypass the cache (a file path does
// not content-address the trace behind it).
func WithCache(store *cache.Store) RunnerOption {
	return func(r *Runner) { r.store = store }
}

// Run executes the spec to completion (or cancellation) and returns the
// assembled Result. On failure or cancellation the Result is non-nil and
// marked Partial: each series keeps the contiguous prefix of its known
// points — those the cache served or whose replications all finished
// before the first job that failed or never ran — and the error is that
// job's own, or the context's error when the run was cancelled.
func (r *Runner) Run(ctx context.Context, spec Spec) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	emit := r.sink
	if emit == nil {
		emit = func(Event) {}
	}
	pl, err := spec.expand()
	if err != nil {
		return nil, err
	}
	var rc *runCache
	if r.store != nil && specCacheable(spec) {
		if rc, err = openRunCache(r.store, spec, pl); err != nil {
			return nil, err
		}
	}

	// queue lists the jobs to simulate in job order (nil: every job), and
	// remaining counts each series' simulations still to finish.
	var queue []int
	remaining := make([]int, len(pl.series))
	total, cached := len(pl.jobs), 0
	if rc == nil {
		for i, s := range pl.series {
			remaining[i] = s.jobs
		}
	} else {
		for c, pt := range rc.served {
			if pt != nil {
				cached++
				continue
			}
			for i := c * pl.reps; i < (c+1)*pl.reps; i++ {
				queue = append(queue, i)
				remaining[pl.jobs[i].series]++
			}
		}
		total = len(queue)
	}
	emit(Event{Type: EventRunStart, Total: total, Cached: cached, Label: spec.title()})

	// One mutex serializes event emission, the done/remaining counters,
	// and the cache's per-cell countdown across workers.
	var mu sync.Mutex
	done := 0
	points := make([]ResultPoint, len(pl.jobs)) // by job index
	firstBad, err := runJobs(ctx, r.workers, total, func(k int) error {
		i := k
		if queue != nil {
			i = queue[k]
		}
		pj := &pl.jobs[i]
		pt, err := pj.input.run(ctx)
		if err != nil {
			return err
		}
		points[i] = pt
		series := pl.series[pj.series].meta.Label
		mu.Lock()
		done++
		emit(Event{
			Type: EventPointDone, Done: done, Total: total,
			Label: pj.label, Series: series, Point: &pt,
		})
		remaining[pj.series]--
		if remaining[pj.series] == 0 {
			emit(Event{Type: EventSeriesDone, Done: done, Total: total, Series: series})
		}
		whole := rc != nil && rc.finish(i/pl.reps)
		mu.Unlock()
		if whole {
			return rc.persist(pl, i/pl.reps, points)
		}
		return nil
	})
	if cerr := ctx.Err(); cerr != nil {
		// The context's own error outranks the per-job symptom it caused.
		err = cerr
	}
	var served []*ResultPoint
	if rc != nil {
		served = rc.served
	}
	return pl.assemble(points, served, firstBad), err
}

// cellPoint is the measured point of one cell, given its replications'
// results in replication order: replication 0 (the spec's own seed),
// carrying the statistics over all of them when the spec replicates.
// It is what a Result holds for the cell and what the cache persists.
func (pl *plan) cellPoint(reps []ResultPoint) ResultPoint {
	pt := reps[0]
	if pl.reps > 1 {
		pt.Replication = aggregateReplications(reps, pl.spec.Mode == ModeStandalone, pl.confidence)
	}
	return pt
}

// assemble builds the Result from a run's known cells. Cell c covers
// jobs [c*reps, (c+1)*reps). It is known when the cache served it
// (served[c] != nil) or when all of its jobs lie in runJobs' completed
// prefix [0, firstBad) of the run's queue, which lists the jobs of every
// unserved cell in job order. Each series keeps the contiguous prefix of
// its known points, and the Result is Partial when any cell is missing.
// Series with no known point are still present, empty, so a partial
// Result keeps the full shape of its spec.
func (pl *plan) assemble(points []ResultPoint, served []*ResultPoint, firstBad int) *Result {
	res := &Result{
		Version:        ResultVersion,
		Spec:           pl.spec,
		SaturationLoad: pl.saturationLoad,
	}
	res.Series = make([]ResultSeries, len(pl.series))
	for i, s := range pl.series {
		res.Series[i] = s.meta
	}
	queued := 0 // queue position of the next unserved cell's first job
	cut := -1   // the series whose known prefix has ended
	for i := 0; i < len(pl.jobs); i += pl.reps {
		pj := &pl.jobs[i]
		var pt ResultPoint
		switch {
		case served != nil && served[i/pl.reps] != nil:
			pt = *served[i/pl.reps]
		case queued+pl.reps <= firstBad:
			pt = pl.cellPoint(points[i : i+pl.reps])
			queued += pl.reps
		default:
			queued += pl.reps
			res.Partial = true
			cut = pj.series
			continue
		}
		if pj.series != cut {
			s := &res.Series[pj.series]
			s.Points = append(s.Points, pt)
		}
	}
	return res
}

// specCacheable reports whether the spec's results may be cached: trace
// record/replay specs are excluded, because the cache key cannot
// content-address a trace file behind a path (replay) and a cache hit
// would silently skip the recording side effect (record).
func specCacheable(s Spec) bool {
	return s.Workload == nil || (s.Workload.RecordTo == "" && s.Workload.ReplayFrom == "")
}

// runCache is one run's view of the result store: the points it served,
// and a countdown of the replications each unserved cell still awaits.
type runCache struct {
	store  *cache.Store
	key    string
	served []*ResultPoint // by cell; nil where the cell must be simulated
	left   []int          // by cell; guarded by the run's mutex
}

// openRunCache hashes the spec and loads, strictly decoded, every cached
// cell of its key that falls inside the plan's grid. A corrupt cell is an
// error, not a miss: serving half a cache would silently break the
// byte-identity contract.
func openRunCache(store *cache.Store, spec Spec, pl *plan) (*runCache, error) {
	key, err := SpecHash(spec)
	if err != nil {
		return nil, err
	}
	stored, err := store.Cells(key)
	if err != nil {
		return nil, err
	}
	cells := len(pl.jobs) / pl.reps
	rc := &runCache{store: store, key: key, served: make([]*ResultPoint, cells), left: make([]int, cells)}
	for c := range rc.left {
		rc.left[c] = pl.reps
	}
	perSeries := cells / len(pl.series) // every series has the same points
	for _, cl := range stored {
		if cl.Series >= len(pl.series) || cl.Point >= perSeries {
			continue // debris from a differently shaped grid: unreachable under one key, skip
		}
		data, ok, err := store.Get(key, cl)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		pt, err := decodeCell(data)
		if err != nil {
			return nil, fmt.Errorf("experiment: cache cell s%d p%d is corrupt: %w (clear the cache directory)",
				cl.Series, cl.Point, err)
		}
		rc.served[cl.Series*perSeries+cl.Point] = &pt
	}
	// The Spec metadata is a best-effort debugging aid beside the cells;
	// the run does not depend on it. Only a run with a cell to simulate
	// writes it, so a run the cache serves whole stays a pure read.
	if slices.Contains(rc.served, nil) {
		if meta, err := EncodeSpec(hashableSpec(spec)); err == nil {
			_ = store.PutSpec(key, meta)
		}
	}
	return rc, nil
}

// decodeCell strictly decodes one cached point. A cell holds exactly
// the bytes persist writes, the point's json.Marshal, so a truncated
// document, an unknown field, data after the point, a null, or the point
// in any other spelling (an empty list, a repeated key) makes the cell
// corrupt. What it serves therefore encodes back to the cell's bytes.
func decodeCell(data []byte) (ResultPoint, error) {
	var pt ResultPoint
	if err := decodeStrict(data, &pt); err != nil {
		return ResultPoint{}, err
	}
	if canon, err := json.Marshal(pt); err != nil || !bytes.Equal(canon, data) {
		return ResultPoint{}, errors.New("not the canonical encoding of a point")
	}
	return pt, nil
}

// finish counts down one finished replication of cell c and reports
// whether it was the cell's last to finish, in any order. The caller
// holds the run's mutex.
func (rc *runCache) finish(c int) bool {
	rc.left[c]--
	return rc.left[c] == 0
}

// persist writes cell c's point, exactly as the Result carries it, once
// finish has reported the cell whole.
func (rc *runCache) persist(pl *plan, c int, points []ResultPoint) error {
	i := c * pl.reps
	data, err := json.Marshal(pl.cellPoint(points[i : i+pl.reps]))
	if err != nil {
		return err
	}
	return rc.store.Put(rc.key, cache.Cell{Series: pl.jobs[i].series, Point: pl.jobs[i].point}, data)
}
