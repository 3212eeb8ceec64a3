// Package stats collects the measurements the paper reports: average packet
// latency and delivered throughput in flits/router/ns, presented as Burton
// Normal Form (BNF) points (latency on the vertical axis against delivered
// throughput on the horizontal axis, §4.3), plus supporting counters used
// by tests and the experiment harness.
package stats

import (
	"fmt"
	"math"

	"alpha21364/internal/packet"
	"alpha21364/internal/sim"
)

// histBuckets is the number of power-of-two latency histogram buckets
// (bucket i covers [2^i, 2^(i+1)) ticks).
const histBuckets = 32

// fineBuckets is the tick-resolution region of the latency histogram:
// latencies below fineBuckets ticks (2^16 ticks = 5461 ns, far beyond
// any non-collapsed run's tail) are counted exactly, one bucket per
// tick, so the reported p50/p95/p99 are exact for the sample counts we
// use. Latencies at or above it fall back to the power-of-two buckets,
// whose upper-bound quantiles only engage deep in saturation collapse.
const fineBuckets = 1 << 16

// fineMin is the fine region's length after its first growth.
const fineMin = 1 << 10

// Collector accumulates delivery statistics. Measurements before the
// warmup boundary are ignored, as the paper discards cold-start transients
// in its 75,000-cycle runs.
type Collector struct {
	warmupEnd sim.Ticks

	packets    int64
	flits      int64
	latencySum sim.Ticks
	latencyMin sim.Ticks
	latencyMax sim.Ticks
	hist       [histBuckets]int64
	// fine counts latencies below fineBuckets ticks exactly, one bucket
	// per tick; fineCount is their total. It starts empty and Delivered
	// doubles it, from fineMin buckets up to fineBuckets, until it covers
	// the largest latency recorded, so a collector holds only the range
	// its run reaches and the steady state records without allocating.
	fine      []uint32
	fineCount int64
	hops      int64

	perClassPackets [packet.NumClasses]int64

	epochs *EpochSeries
}

// TrackEpochs attaches a delivered-flit time series with the given epoch
// length; it records all deliveries, warmup included, so the oscillation
// onset is visible.
func (c *Collector) TrackEpochs(epoch sim.Ticks) *EpochSeries {
	c.epochs = NewEpochSeries(epoch)
	return c.epochs
}

// NewCollector returns a collector that measures deliveries at or after
// warmupEnd.
func NewCollector(warmupEnd sim.Ticks) *Collector {
	return &Collector{warmupEnd: warmupEnd, latencyMin: math.MaxInt64}
}

// Delivered records a packet's arrival at its destination local port.
func (c *Collector) Delivered(p *packet.Packet, at sim.Ticks) {
	if c.epochs != nil {
		c.epochs.Record(at, p.Flits)
	}
	if at < c.warmupEnd {
		return
	}
	lat := at - p.Created
	if lat < 0 {
		panic(fmt.Sprintf("stats: negative latency for %v: created %d, delivered %d", p, p.Created, at))
	}
	c.packets++
	c.flits += int64(p.Flits)
	c.latencySum += lat
	if lat < c.latencyMin {
		c.latencyMin = lat
	}
	if lat > c.latencyMax {
		c.latencyMax = lat
	}
	c.hist[bucketOf(lat)]++
	if lat < fineBuckets {
		if int(lat) >= len(c.fine) {
			c.growFine(lat)
		}
		c.fine[lat]++
		c.fineCount++
	}
	c.hops += int64(p.Hops)
	c.perClassPackets[p.Class]++
}

// growFine doubles the fine region, keeping its counts, until it covers
// lat (which is below fineBuckets).
func (c *Collector) growFine(lat sim.Ticks) {
	n := max(len(c.fine), fineMin)
	for int(lat) >= n {
		n *= 2
	}
	fine := make([]uint32, n)
	copy(fine, c.fine)
	c.fine = fine
}

func bucketOf(lat sim.Ticks) int {
	b := 0
	for v := lat; v > 1 && b < histBuckets-1; v >>= 1 {
		b++
	}
	return b
}

// Packets returns the number of measured deliveries.
func (c *Collector) Packets() int64 { return c.packets }

// Flits returns the measured delivered flit count.
func (c *Collector) Flits() int64 { return c.flits }

// ClassPackets returns measured deliveries of one class.
func (c *Collector) ClassPackets(cl packet.Class) int64 { return c.perClassPackets[cl] }

// MeanHops returns the average router-to-router hop count of measured
// packets.
func (c *Collector) MeanHops() float64 {
	if c.packets == 0 {
		return 0
	}
	return float64(c.hops) / float64(c.packets)
}

// AvgLatencyNS returns the mean packet latency in nanoseconds.
func (c *Collector) AvgLatencyNS() float64 {
	if c.packets == 0 {
		return 0
	}
	return (float64(c.latencySum) / float64(c.packets)) / float64(sim.TicksPerNS)
}

// MinLatencyNS and MaxLatencyNS return the observed latency extremes.
func (c *Collector) MinLatencyNS() float64 {
	if c.packets == 0 {
		return 0
	}
	return c.latencyMin.NS()
}

// MaxLatencyNS returns the largest observed latency.
func (c *Collector) MaxLatencyNS() float64 {
	if c.packets == 0 {
		return 0
	}
	return c.latencyMax.NS()
}

// PercentileLatencyNS returns the p-quantile latency (p in (0,1]). The
// value is exact (to the tick) while the quantile falls inside the
// fine-bucket region — every practical run; only quantiles beyond
// fineBuckets ticks (5.46 µs, deep saturation collapse) degrade to the
// power-of-two histogram's upper bound.
func (c *Collector) PercentileLatencyNS(p float64) float64 {
	if c.packets == 0 {
		return 0
	}
	target := int64(math.Ceil(p * float64(c.packets)))
	if target <= c.fineCount {
		// Exact: latencies are tick-counted below fineBuckets, and every
		// latency in the fine region is smaller than any latency outside
		// it.
		var cum int64
		for t := range c.fine {
			cum += int64(c.fine[t])
			if cum >= target {
				return sim.Ticks(t).NS()
			}
		}
	}
	var cum int64
	for b := 0; b < histBuckets; b++ {
		cum += c.hist[b]
		if cum >= target {
			return sim.Ticks(int64(1) << uint(b+1)).NS()
		}
	}
	return c.latencyMax.NS()
}

// LatencySummary bundles a run's packet-latency distribution in
// nanoseconds: the exact mean and extremes plus the median and tail
// quantiles, exact to the tick whenever they fall below 5.46 µs (see
// PercentileLatencyNS).
type LatencySummary struct {
	MeanNS float64
	MinNS  float64
	MaxNS  float64
	P50NS  float64
	P95NS  float64
	P99NS  float64
}

// LatencySummaryNS summarizes the measured latency distribution.
func (c *Collector) LatencySummaryNS() LatencySummary {
	return LatencySummary{
		MeanNS: c.AvgLatencyNS(),
		MinNS:  c.MinLatencyNS(),
		MaxNS:  c.MaxLatencyNS(),
		P50NS:  c.PercentileLatencyNS(0.50),
		P95NS:  c.PercentileLatencyNS(0.95),
		P99NS:  c.PercentileLatencyNS(0.99),
	}
}

// EpochSeries buckets delivered flits into fixed time epochs, exposing the
// delivered-throughput waveform over time. The paper observes that a
// saturated 21364 network "produces a cyclic pattern of network link
// utilization" as backpressure waves throttle and release the injectors
// (§3.4); this series makes that oscillation measurable.
type EpochSeries struct {
	epoch  sim.Ticks
	counts []int64
}

// NewEpochSeries returns a series with the given epoch length.
func NewEpochSeries(epoch sim.Ticks) *EpochSeries {
	if epoch <= 0 {
		panic("stats: epoch must be positive")
	}
	return &EpochSeries{epoch: epoch}
}

// Reserve pre-sizes the series for a run of known length, so recording
// never grows the slice mid-run.
func (e *EpochSeries) Reserve(epochs int) {
	if epochs > cap(e.counts) {
		counts := make([]int64, len(e.counts), epochs)
		copy(counts, e.counts)
		e.counts = counts
	}
}

// Record adds flits delivered at time at.
func (e *EpochSeries) Record(at sim.Ticks, flits int) {
	idx := int(at / e.epoch)
	for len(e.counts) <= idx {
		e.counts = append(e.counts, 0)
	}
	e.counts[idx] += int64(flits)
}

// Values returns delivered flits per epoch.
func (e *EpochSeries) Values() []int64 { return e.counts }

// CoefficientOfVariation returns stddev/mean of the per-epoch delivery
// counts over [from, to) epochs — a unitless measure of how strongly the
// delivered throughput oscillates (0 = perfectly steady).
func (e *EpochSeries) CoefficientOfVariation(from, to int) float64 {
	if to > len(e.counts) {
		to = len(e.counts)
	}
	if from < 0 || to-from < 2 {
		return 0
	}
	n := float64(to - from)
	var sum float64
	for _, v := range e.counts[from:to] {
		sum += float64(v)
	}
	mean := sum / n
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, v := range e.counts[from:to] {
		d := float64(v) - mean
		ss += d * d
	}
	return math.Sqrt(ss/n) / mean
}

// Point is one BNF curve point.
type Point struct {
	// Throughput is delivered flits per router per nanosecond.
	Throughput float64
	// AvgLatencyNS is the mean packet latency in nanoseconds.
	AvgLatencyNS float64
	// Packets is the number of measured packet deliveries.
	Packets int64
}

// BNF computes the BNF point over the measurement window [warmupEnd, end]
// for a network of the given router count.
func (c *Collector) BNF(routers int, end sim.Ticks) Point {
	window := end - c.warmupEnd
	if window <= 0 || routers <= 0 {
		return Point{}
	}
	return Point{
		Throughput:   float64(c.flits) / float64(routers) / window.NS(),
		AvgLatencyNS: c.AvgLatencyNS(),
		Packets:      c.packets,
	}
}

func (p Point) String() string {
	return fmt.Sprintf("%.4f flits/router/ns @ %.1f ns", p.Throughput, p.AvgLatencyNS)
}
