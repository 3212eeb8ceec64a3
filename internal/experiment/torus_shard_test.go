package experiment

// torus_shard_test.go gates the spatially-sharded simulation path
// (spec torus_shards) on the same golden
// fingerprints that pin the monolithic engine: a sharded run must
// reproduce the canned arbiter × pattern figure matrix byte for byte at
// every shard count. The only permitted difference is the spec's own
// torus_shards field (the Result embeds its Spec verbatim), which the
// test normalizes away before hashing. (Distinct from shard_test.go,
// which covers the sweep coordinator's spec-grid sharding.)

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// runTorusShardedFingerprint runs the canned timing matrix with the
// given shard count and fingerprints the result with torus_shards
// normalized to the monolithic spec.
func runTorusShardedFingerprint(t *testing.T, shards int) string {
	t.Helper()
	sp := fingerprintTimingSpec()
	WithTorusShards(shards)(&sp)
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := NewRunner(WithWorkers(1)).Run(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	res.Spec.Timing.TorusShards = 0
	return resultFingerprint(t, res)
}

// TestTorusShardedGoldenFingerprint is the tentpole acceptance gate: the
// full canned arbiter × pattern figure matrix, spatially sharded at 1,
// 2, and 4 row bands, byte-identical to the monolithic golden.
func TestTorusShardedGoldenFingerprint(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		if got := runTorusShardedFingerprint(t, shards); got != goldenTimingFingerprint {
			t.Errorf("torus_shards=%d fingerprint diverged from the monolithic golden:\n  got  %s\n  want %s",
				shards, got, goldenTimingFingerprint)
		}
	}
}

// TestTorusShardedMatchesMonolithicWithOracle runs checked,
// instrumented, epoch-tracked points both ways and compares every
// field of every point — covering the oracle hooks and telemetry
// counters under concurrent edge workers, which the fingerprint
// (spec-level, unchecked) does not. This is the race-pools target: under
// -race it sweeps the checker's per-router scratch, the per-shard flight
// slots, and the wavefront's publish/wait flags.
func TestTorusShardedMatchesMonolithicWithOracle(t *testing.T) {
	run := func(shards int) []ResultSeries {
		t.Helper()
		res, err := runnerExec(1)(NewSpec(
			WithTopology(4, 4), WithArbiters("SPAA-rotary", "PIM1", "WFA-base"),
			WithPatterns("bit-reversal"), WithRates(0.06), WithCycles(1000), WithSeed(11),
			WithCheck(), WithMetrics(), WithEpochCycles(100), WithTorusShards(shards),
		))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return res.Series
	}
	mono := run(0)
	for _, shards := range []int{1, 2, 4} {
		got := run(shards)
		for i := range mono {
			if !reflect.DeepEqual(mono[i], got[i]) {
				t.Errorf("%s shards=%d: checked result diverged from monolithic:\nmono  %+v\nshard %+v",
					mono[i].Arbiter, shards, mono[i].Points, got[i].Points)
			}
		}
	}
}

// TestTorusShardedRejectsTooManyShards pins the validation boundary:
// Spec.Validate, and so the Runner, refuses more shards than rows.
func TestTorusShardedRejectsTooManyShards(t *testing.T) {
	sp := fingerprintTimingSpec()
	WithTorusShards(5)(&sp)
	if err := sp.Validate(); err == nil {
		t.Fatal("torus_shards > height was accepted by Spec.Validate")
	}
	if _, err := runnerExec(1)(sp); err == nil {
		t.Fatal("torus_shards > height was accepted by the Runner")
	}
	sp = fingerprintTimingSpec()
	WithTorusShards(-1)(&sp)
	if err := sp.Validate(); err == nil {
		t.Fatal("negative torus_shards was accepted by Spec.Validate")
	}
}

// TestTorusShardedSpecHashDiffers pins the cache-key decision: a sharded
// spec hashes differently from a monolithic one (the execution strategy
// is recorded provenance), while torus_shards=0 leaves existing hashes —
// and therefore existing result caches — untouched (omitempty).
func TestTorusShardedSpecHashDiffers(t *testing.T) {
	mono := fingerprintTimingSpec()
	sharded := fingerprintTimingSpec()
	WithTorusShards(4)(&sharded)
	hm, err := SpecHash(mono)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := SpecHash(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if hm == hs {
		t.Fatal("sharded and monolithic specs share a cache key")
	}
	zero := fingerprintTimingSpec()
	WithTorusShards(0)(&zero)
	hz, err := SpecHash(zero)
	if err != nil {
		t.Fatal(err)
	}
	if hz != hm {
		t.Fatal("torus_shards=0 changed the spec hash; existing caches would be invalidated")
	}
}

// TestTorusShardedSpeedup measures the wall-clock ratio of a saturated
// 16x16 point at 1 vs 4 shards. It needs real cores to mean anything, so
// it skips on small machines and in short mode; coverage instrumentation
// (atomic counters on every hot-path statement) serializes the workers
// enough to invert the result, so instrumented runs skip too. The
// committed BENCH_10.json baseline carries the per-machine numbers for
// the benchmark gate; this test is a smoke check that parallelism exists
// at all where it can.
func TestTorusShardedSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement skipped in short mode")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("speedup measurement needs >= 4 CPUs, have %d", runtime.NumCPU())
	}
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation distorts the parallel tick path")
	}
	measure := func(shards int) time.Duration {
		sp := NewSpec(
			WithTopology(16, 16), WithArbiters("SPAA-rotary"), WithPatterns("random"),
			WithRates(0.09), WithMaxOutstanding(64), WithCycles(1200), WithSeed(1),
			WithTorusShards(shards),
		)
		start := time.Now()
		runPoint(t, sp)
		return time.Since(start)
	}
	measure(1) // warm (page tables, arena growth paths)
	serial := measure(1)
	sharded := measure(4)
	ratio := float64(serial) / float64(sharded)
	t.Logf("16x16 saturated: 1 shard %v, 4 shards %v (%.2fx)", serial, sharded, ratio)
	if ratio < 1.15 {
		t.Errorf("4-shard run only %.2fx faster than 1-shard on %d CPUs, want >= 1.15x",
			ratio, runtime.NumCPU())
	}
}
