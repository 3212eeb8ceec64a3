package stats

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"testing"

	"alpha21364/internal/packet"
	"alpha21364/internal/sim"
)

// delivery is one packet for a collector: created at created, delivered
// at at.
type delivery struct{ created, at sim.Ticks }

// refQuantileNS is PercentileLatencyNS over a sorted slice of measured
// latencies: the target-th smallest latency, exact below fineBuckets,
// and past it the upper bound of its power-of-two bucket.
func refQuantileNS(sorted []sim.Ticks, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	v := sorted[int(math.Ceil(p*float64(len(sorted))))-1]
	if v < fineBuckets {
		return v.NS()
	}
	b := min(bits.Len64(uint64(v))-1, histBuckets-1)
	return sim.Ticks(int64(1) << uint(b+1)).NS()
}

// TestQuantilesExactWithGrownHistogram feeds collectors latencies on
// both sides of every growth step of the fine histogram, in increasing
// order (one doubling after another) and in decreasing order (the first
// delivery forces the largest growth), and compares every quantile and
// the latency summary with a sorted-slice reference.
func TestQuantilesExactWithGrownHistogram(t *testing.T) {
	edges := []sim.Ticks{0, 1, 1023, 1024, 4097, 65535, 65536, 1 << 20}
	var spread []sim.Ticks
	for i := 0; i < 1000; i++ {
		spread = append(spread, sim.Ticks(i*37%5003))
	}
	cases := []struct {
		name      string
		warmupEnd sim.Ticks
		lats      []sim.Ticks
		// early are deliveries before warmupEnd, which no statistic counts.
		early []delivery
	}{
		{name: "growth edges", lats: edges},
		{name: "fine region only", lats: edges[:6]},
		{name: "spread", lats: spread},
		{
			// Measured deliveries land exactly on the boundary; the
			// early ones, a tick before it, carry other latencies.
			name:      "warmup boundary",
			warmupEnd: 1 << 21,
			lats:      []sim.Ticks{70000, 2000, 69999, 3},
			early:     []delivery{{0, 1<<21 - 1}, {1<<21 - 5000, 1<<21 - 1}},
		},
		{name: "empty"},
	}
	for _, tc := range cases {
		sorted := slices.Sorted(slices.Values(tc.lats))
		for _, order := range []string{"increasing", "decreasing"} {
			lats := slices.Clone(sorted)
			if order == "decreasing" {
				slices.Reverse(lats)
			}
			c := NewCollector(tc.warmupEnd)
			for i, d := range tc.early {
				c.Delivered(packet.New(uint64(1000000+i), packet.Request, 0, 1, d.created), d.at)
			}
			at := max(tc.warmupEnd, 1<<21)
			var sum sim.Ticks
			for i, lat := range lats {
				c.Delivered(packet.New(uint64(i), packet.Request, 0, 1, at-lat), at)
				sum += lat
			}
			for _, p := range []float64{0.5, 0.95, 0.99, 1.0} {
				if got, want := c.PercentileLatencyNS(p), refQuantileNS(sorted, p); got != want {
					t.Errorf("%s, %s: p%v = %v ns, want %v", tc.name, order, p*100, got, want)
				}
			}
			var want LatencySummary
			if n := len(sorted); n > 0 {
				want = LatencySummary{
					MeanNS: float64(sum) / float64(n) / float64(sim.TicksPerNS),
					MinNS:  sorted[0].NS(),
					MaxNS:  sorted[n-1].NS(),
					P50NS:  refQuantileNS(sorted, 0.50),
					P95NS:  refQuantileNS(sorted, 0.95),
					P99NS:  refQuantileNS(sorted, 0.99),
				}
			}
			if got := c.LatencySummaryNS(); got != want {
				t.Errorf("%s, %s: summary %+v, want %+v", tc.name, order, got, want)
			}
			if len(c.fine) > fineBuckets {
				t.Errorf("%s, %s: fine histogram grew to %d buckets, past %d", tc.name, order, len(c.fine), fineBuckets)
			}
		}
	}
}

// TestNewCollectorBytes pins a collector's construction cost: the fine
// histogram starts empty, so NewCollector allocates at most 1 KiB.
// testing.AllocsPerRun counts objects, so the bytes come from
// runtime.MemStats around a loop.
func TestNewCollectorBytes(t *testing.T) {
	const runs, maxBytes = 100, 1024
	keep := make([]*Collector, runs)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = NewCollector(sim.Ticks(i))
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > maxBytes {
		t.Errorf("NewCollector allocates %d bytes, want at most %d", per, maxBytes)
	}
	runtime.KeepAlive(keep)
}
