package experiment

// cache_test.go enforces the result cache's contract on the Runner: a
// cached run — serial or parallel, replicated or not — is byte-identical
// to an uncached one (PR-4 golden fingerprints included, and the full
// canned figure matrix at reduced fidelity), a second cached run
// simulates nothing, a run killed mid-grid persists only whole completed
// points and resumes by simulating only the missing ones, and a corrupt
// cell fails the run instead of being served.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"alpha21364/internal/cache"
)

func testStore(t *testing.T) *cache.Store {
	t.Helper()
	store, err := cache.Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// cachedRun is one Run's outcome plus what its event stream reported.
type cachedRun struct {
	res    *Result
	err    error
	cached int // run-start's Cached: grid points served from the cache
	sims   int // point-done events: simulations performed
}

// points is the number of grid points the Result holds.
func (c cachedRun) points() int {
	n := 0
	for _, s := range c.res.Series {
		n += len(s.Points)
	}
	return n
}

// runCached runs the spec through a fresh Runner on the store (nil runs
// uncached) with the given worker count.
func runCached(t *testing.T, ctx context.Context, store *cache.Store, sp Spec, workers int) cachedRun {
	t.Helper()
	var c cachedRun
	r := NewRunner(WithWorkers(workers), WithCache(store), WithEventSink(func(e Event) {
		switch e.Type {
		case EventRunStart:
			c.cached = e.Cached
		case EventPointDone:
			c.sims++
		}
	}))
	c.res, c.err = r.Run(ctx, sp)
	return c
}

// cachedFingerprint runs a complete cached run and fingerprints it.
func cachedFingerprint(t *testing.T, store *cache.Store, sp Spec, workers int) (string, cachedRun) {
	t.Helper()
	c := runCached(t, context.Background(), store, sp, workers)
	if c.err != nil {
		t.Fatal(c.err)
	}
	if c.res.Partial {
		t.Fatal("complete cached run marked Partial")
	}
	return resultFingerprint(t, c.res), c
}

// TestRunnerCacheMatchesGoldenFingerprints is the acceptance gate: a
// cold cached run, serial or on every CPU, must reproduce the PR-4
// golden fingerprints byte for byte, and so must the warm rerun that
// serves every point from the cache.
func TestRunnerCacheMatchesGoldenFingerprints(t *testing.T) {
	for _, workers := range []int{0, 1} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			for _, tc := range []struct {
				sp   Spec
				want string
			}{
				{fingerprintTimingSpec(), goldenTimingFingerprint},
				{fingerprintStandaloneSpec(), goldenStandaloneFingerprint},
			} {
				store := testStore(t)
				for _, pass := range []string{"cold", "warm"} {
					if got, _ := cachedFingerprint(t, store, tc.sp, workers); got != tc.want {
						t.Errorf("%s %s: fingerprint diverged:\n  got  %s\n  want %s", tc.sp.Name, pass, got, tc.want)
					}
				}
			}
		})
	}
}

// TestRunnerCacheSecondRunIsPureRead runs the same spec twice against
// one store: the second run must simulate nothing and still produce the
// identical byte stream.
func TestRunnerCacheSecondRunIsPureRead(t *testing.T) {
	store := testStore(t)
	sp := fingerprintStandaloneSpec() // 3 arbiters x 2 loads

	cold, first := cachedFingerprint(t, store, sp, 0)
	if first.cached != 0 || first.sims != 6 || first.points() != 6 {
		t.Fatalf("cold run: %d cached, %d simulated, %d points; want 0, 6, 6", first.cached, first.sims, first.points())
	}
	warm, second := cachedFingerprint(t, store, sp, 0)
	if second.sims != 0 || second.cached != 6 {
		t.Fatalf("warm run: %d cached, %d simulated; a cached run must simulate none", second.cached, second.sims)
	}
	if cold != warm {
		t.Fatalf("cached run diverged from simulated run:\n  cold %s\n  warm %s", cold, warm)
	}

	// A name-only variant must hit the same cache entries: the key is
	// semantic, not textual.
	renamed := sp
	renamed.Name = "same physics, different title"
	if _, third := cachedFingerprint(t, store, renamed, 0); third.sims != 0 {
		t.Fatalf("renamed spec missed the cache: %d simulations", third.sims)
	}
}

// TestRunnerCacheBypassedByRecordReplay checks that record/replay specs
// never read or write the store: a path does not content-address the
// trace behind it.
func TestRunnerCacheBypassedByRecordReplay(t *testing.T) {
	store := testStore(t)
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	rec := NewSpec(
		WithName("record run"),
		WithTopology(4, 4),
		WithArbiters("PIM1"),
		WithPatterns("random"),
		WithRates(0.02),
		WithCycles(200),
		WithSeed(4),
		WithRecord(trace),
	)
	emptyStore := func(what string) {
		t.Helper()
		entries, err := os.ReadDir(store.Dir())
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Fatalf("%s spec wrote %d cache entries; record/replay must bypass the cache", what, len(entries))
		}
	}
	if _, c := cachedFingerprint(t, store, rec, 0); c.sims != 1 {
		t.Fatalf("record spec ran %d simulations, want 1", c.sims)
	}
	emptyStore("record")

	replay := NewSpec(
		WithName("replay run"),
		WithTopology(4, 4),
		WithArbiters("PIM1"),
		WithReplay(trace),
		WithCycles(200),
		WithSeed(4),
	)
	if _, c := cachedFingerprint(t, store, replay, 0); c.cached != 0 || c.sims != 1 {
		t.Fatalf("replay spec touched the cache: %d cached, %d simulated", c.cached, c.sims)
	}
	emptyStore("replay")
}

// resumeSpec is small enough to kill deterministically: 1 series,
// 3 points, 2 replications — 6 simulations, whole points of 2.
func resumeSpec() Spec {
	return NewSpec(
		WithName("kill and resume"),
		WithTopology(4, 4),
		WithArbiters("SPAA-rotary"),
		WithPatterns("random"),
		WithRates(0.02, 0.04, 0.06),
		WithCycles(300),
		WithSeed(21),
		WithReplications(2),
	)
}

// killAfter runs the spec on a serial cached Runner, cancelling the
// context after the nth point-done event, and returns the partial
// Result.
func killAfter(t *testing.T, store *cache.Store, sp Spec, n int) *Result {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	r := NewRunner(WithCache(store), WithWorkers(1), WithEventSink(func(e Event) {
		if e.Type == EventPointDone {
			seen++
			if seen == n {
				cancel()
			}
		}
	}))
	res, err := r.Run(ctx, sp)
	if err != context.Canceled {
		t.Fatalf("killed run returned %v, want context.Canceled", err)
	}
	if res == nil || !res.Partial {
		t.Fatal("killed run must return a partial result")
	}
	return res
}

// TestRunnerCacheKillAndResume kills a sweep mid-grid, asserts the cache
// holds only whole completed points — each strictly decodable — then
// resumes and asserts the output is byte-identical to an uninterrupted
// run, with only the missing points simulated.
func TestRunnerCacheKillAndResume(t *testing.T) {
	sp := resumeSpec()
	key := mustHash(t, sp)

	// The uninterrupted truth, uncached.
	mono, err := NewRunner(WithWorkers(1)).Run(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	want := resultFingerprint(t, mono)

	store := testStore(t)
	// Cancel after the 2nd simulation: point 0's two replications have
	// both finished (a whole point), and with one worker no other job has
	// started.
	killed := killAfter(t, store, sp, 2)
	if got := len(killed.Series[0].Points); got != 1 {
		t.Fatalf("killed run kept %d points, want exactly 1", got)
	}
	cells, err := store.Cells(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0] != (cache.Cell{Series: 0, Point: 0}) {
		t.Fatalf("cache holds %v, want exactly cell (0,0)", cells)
	}
	for _, cl := range cells {
		data, ok, err := store.Get(key, cl)
		if err != nil || !ok {
			t.Fatalf("cached cell %v unreadable: ok=%v err=%v", cl, ok, err)
		}
		if _, err := decodeCell(data); err != nil {
			t.Fatalf("cached cell %v is not a whole, strictly decodable point: %v", cl, err)
		}
	}

	// Resume: only the two missing points (four simulations) may run, and
	// the output must match the uninterrupted run byte for byte.
	got, resumed := cachedFingerprint(t, store, sp, 1)
	if resumed.cached != 1 || resumed.sims != 4 || resumed.points()-resumed.cached != 2 {
		t.Fatalf("resume: %d cached, %d simulations over %d points; want 1 cached + 2 points simulated in 4 runs",
			resumed.cached, resumed.sims, resumed.points()-resumed.cached)
	}
	if got != want {
		t.Fatalf("resumed run diverged from uninterrupted run:\n  got  %s\n  want %s", got, want)
	}
}

// TestRunnerCacheKillMidPointPersistsNothing cancels after a single
// replication — half a point. The cache must stay empty: points persist
// whole or not at all.
func TestRunnerCacheKillMidPointPersistsNothing(t *testing.T) {
	sp := resumeSpec()
	store := testStore(t)
	if killed := killAfter(t, store, sp, 1); len(killed.Series[0].Points) != 0 {
		t.Fatalf("mid-point kill kept %d points, want 0", len(killed.Series[0].Points))
	}
	cells, err := store.Cells(mustHash(t, sp))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 0 {
		t.Fatalf("cache holds %v after a mid-point kill; points must persist whole or not at all", cells)
	}
}

// TestRunnerCacheCorruptCellFails overwrites a cached cell with each
// kind of damage: the next run must fail loudly instead of assembling a
// torn cache into a plausible-looking result.
func TestRunnerCacheCorruptCellFails(t *testing.T) {
	store := testStore(t)
	sp := fingerprintStandaloneSpec()
	if _, c := cachedFingerprint(t, store, sp, 0); c.sims == 0 {
		t.Fatal("cold run simulated nothing")
	}
	key := mustHash(t, sp)
	cell := cache.Cell{Series: 0, Point: 0}
	valid, ok, err := store.Get(key, cell)
	if err != nil || !ok {
		t.Fatalf("cell (0,0) unreadable: ok=%v err=%v", ok, err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"truncated JSON", valid[:len(valid)/2]},
		{"second value after the point", append(bytes.Clone(valid), []byte(`{"rate": 99}`)...)},
		{"stray closing brace", append(bytes.Clone(valid), '}')},
		{"unknown field", append([]byte(`{"bogus":1,`), valid[1:]...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := store.Put(key, cell, tc.data); err != nil {
				t.Fatal(err)
			}
			c := runCached(t, context.Background(), store, sp, 0)
			if c.err == nil || !strings.Contains(c.err.Error(), "corrupt") {
				t.Fatalf("corrupt cache cell was not rejected: err = %v", c.err)
			}
			if c.sims != 0 {
				t.Fatalf("a run over a corrupt cache simulated %d points", c.sims)
			}
		})
	}
}

// TestRunnerCacheFigureMatrix sweeps the full canned figure matrix at
// reduced fidelity through a cold cache and demands byte identity with
// the uncached Runner — the whole-surface version of the golden gate —
// then reruns it warm, simulating nothing.
func TestRunnerCacheFigureMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure matrix is too slow for -short")
	}
	o := Options{Quick: true, CyclesOverride: 600, MaxRatePoints: 2, Seed: 1}
	specs, err := FigureSpecs("all", o)
	if err != nil {
		t.Fatal(err)
	}
	store := testStore(t)
	for _, sp := range specs {
		mono, err := NewRunner().Run(context.Background(), sp)
		if err != nil {
			t.Fatalf("%s: uncached: %v", sp.Name, err)
		}
		want := resultFingerprint(t, mono)
		if got, _ := cachedFingerprint(t, store, sp, 0); got != want {
			t.Errorf("%s: cached result diverged from uncached:\n  uncached %s\n  cached   %s", sp.Name, want, got)
		}
	}
	for _, sp := range specs {
		if _, c := cachedFingerprint(t, store, sp, 0); c.sims != 0 {
			t.Errorf("%s: warm run simulated %d points", sp.Name, c.sims)
		}
	}
}

// TestRunnerCacheParallelReplicated persists from a parallel pool while
// replications of one point finish in any order: each cell must persist
// when its last replication finishes, not when its highest-numbered one
// does. The cold run and the warm rerun that reads what it persisted
// must both match a serial uncached run.
func TestRunnerCacheParallelReplicated(t *testing.T) {
	sp := NewSpec(
		WithName("parallel replicated cache"),
		WithTopology(4, 4),
		WithArbiters("SPAA-rotary", "PIM1"),
		WithRates(0.02, 0.05, 0.09),
		WithCycles(400),
		WithSeed(13),
		WithReplications(3),
	)
	want := runFingerprint(t, sp, 1)
	store := testStore(t)
	cold, c := cachedFingerprint(t, store, sp, 4)
	if c.sims != 18 {
		t.Fatalf("cold run ran %d simulations, want 18", c.sims)
	}
	if cold != want {
		t.Fatalf("cold parallel cached run diverged from serial:\n  got  %s\n  want %s", cold, want)
	}
	warm, w := cachedFingerprint(t, store, sp, 4)
	if w.sims != 0 || w.cached != 6 {
		t.Fatalf("warm run: %d cached, %d simulated; want 6 and 0", w.cached, w.sims)
	}
	if warm != want {
		t.Fatalf("warm run served points that differ from a serial run:\n  got  %s\n  want %s", warm, want)
	}
}

// TestRunnerCacheHoleIsPartial serves every cell but (0,0) from the
// cache under a context that is already cancelled: the missing cell
// cuts series 0 back to its empty prefix and marks the Result Partial,
// while every other series is served whole.
func TestRunnerCacheHoleIsPartial(t *testing.T) {
	sp := fingerprintStandaloneSpec()
	full, err := NewRunner(WithWorkers(1)).Run(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	store := testStore(t)
	key := mustHash(t, sp)
	for si, s := range full.Series {
		for pi, pt := range s.Points {
			if si == 0 && pi == 0 {
				continue
			}
			data, err := json.Marshal(pt)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Put(key, cache.Cell{Series: si, Point: pi}, data); err != nil {
				t.Fatal(err)
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := runCached(t, ctx, store, sp, 0)
	if !errors.Is(c.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", c.err)
	}
	if c.cached != 5 || c.sims != 0 {
		t.Fatalf("%d cached, %d simulated; want 5 and 0", c.cached, c.sims)
	}
	if !c.res.Partial {
		t.Fatal("a missing cell did not mark the Result Partial")
	}
	if got := len(c.res.Series[0].Points); got != 0 {
		t.Fatalf("series 0 kept %d points after losing point 0; the prefix cut must drop them all", got)
	}
	for si := 1; si < len(c.res.Series); si++ {
		if got, want := c.res.Series[si].Points, full.Series[si].Points; !reflect.DeepEqual(got, want) {
			t.Fatalf("series %d = %+v, want its full %d points %+v", si, got, len(want), want)
		}
	}
}
