package main

// metrics.go is the daemon's observability surface: a process-lifetime
// counter set fed by every request, exposed at GET /metrics in the
// Prometheus text format (hand-rolled by internal/obs — no client
// library). Request and point counters are cumulative since daemon
// start; the per-arbiter series aggregate the obs.Snapshots of every
// metric-laden point the daemon has served, so a scrape sees router
// stalls and arbitration totals broken down by algorithm.

import (
	"io"
	"sort"
	"sync"

	"alpha21364/internal/experiment"
	"alpha21364/internal/obs"
)

// arbiterAgg accumulates one arbitration algorithm's router and arbiter
// counters across every snapshot-carrying point served so far.
type arbiterAgg struct {
	stalls, creditWaits                      int64
	requests, grants, conflicts, nomFailures int64
	delivered                                int64
}

// daemonMetrics is the shared counter set. One mutex guards everything:
// the daemon's request rate is nowhere near the point where contention
// matters, and a single lock keeps ratio reads consistent.
type daemonMetrics struct {
	mu          sync.Mutex
	requests    int64 // spec executions attempted (HTTP and stdin)
	requestErrs int64 // rejected documents + failed runs
	points      int64 // grid points served, cached and simulated
	cacheHits   int64
	simulated   int64
	runDur      *obs.Histogram // seconds per completed run
	arbiters    map[string]*arbiterAgg
}

func newDaemonMetrics() *daemonMetrics {
	return &daemonMetrics{
		runDur:   obs.NewHistogram(0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 60),
		arbiters: map[string]*arbiterAgg{},
	}
}

// recordRequest counts one spec execution attempt.
func (d *daemonMetrics) recordRequest() {
	d.mu.Lock()
	d.requests++
	d.mu.Unlock()
}

// recordError counts one failure: an undecodable document or a run that
// returned an error.
func (d *daemonMetrics) recordError() {
	d.mu.Lock()
	d.requestErrs++
	d.mu.Unlock()
}

// recordBadRequest counts a document rejected before it could run.
func (d *daemonMetrics) recordBadRequest() {
	d.mu.Lock()
	d.requests++
	d.requestErrs++
	d.mu.Unlock()
}

// recordRun folds one completed run — its Result's points, the cached
// share of them, its wall-clock duration and its telemetry snapshots —
// into the process counters, and returns the run's point count.
func (d *daemonMetrics) recordRun(res *experiment.Result, cached int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	points := 0
	for _, s := range res.Series {
		points += len(s.Points)
		for _, p := range s.Points {
			snap := p.Metrics
			if snap == nil {
				continue
			}
			agg := d.arbiters[snap.Arbiter]
			if agg == nil {
				agg = &arbiterAgg{}
				d.arbiters[snap.Arbiter] = agg
			}
			for _, r := range snap.Routers {
				agg.stalls += r.Stalls
				agg.creditWaits += r.CreditWaits
				agg.requests += r.ArbRequests
				agg.grants += r.ArbGrants
				agg.conflicts += r.ArbConflicts
				agg.nomFailures += r.NomFailures
			}
			agg.delivered += snap.Network.DeliveredPackets
		}
	}
	d.points += int64(points)
	d.cacheHits += int64(cached)
	d.simulated += int64(points - cached)
	d.runDur.Observe(float64(res.ElapsedNS) / 1e9)
	return points
}

// writeProm emits the full exposition document.
func (d *daemonMetrics) writeProm(w io.Writer) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := obs.NewPromWriter(w)

	counter := func(name, help string, v int64) {
		p.Family(name, "counter", help)
		p.Sample(name, float64(v))
	}
	counter("sweepd_requests_total", "Spec executions attempted, over HTTP and stdin.", d.requests)
	counter("sweepd_request_errors_total", "Rejected spec documents plus failed runs.", d.requestErrs)
	counter("sweepd_points_total", "Grid points served, cached and simulated.", d.points)
	counter("sweepd_cache_hits_total", "Grid points served from the result cache.", d.cacheHits)
	counter("sweepd_points_simulated_total", "Grid points simulated by this process.", d.simulated)

	p.Family("sweepd_cache_hit_ratio", "gauge", "Fraction of served points that came from the cache, since start.")
	ratio := 0.0
	if d.points > 0 {
		ratio = float64(d.cacheHits) / float64(d.points)
	}
	p.Sample("sweepd_cache_hit_ratio", ratio)

	p.Family("sweepd_points_per_second", "gauge", "Simulated points per second of run wall-clock, since start.")
	pps := 0.0
	if sec := d.runDur.Sum(); sec > 0 {
		pps = float64(d.simulated) / sec
	}
	p.Sample("sweepd_points_per_second", pps)

	p.Histo("sweepd_run_duration_seconds", "Wall-clock duration of completed runs.", d.runDur)

	names := make([]string, 0, len(d.arbiters))
	for name := range d.arbiters {
		names = append(names, name)
	}
	sort.Strings(names)
	perArbiter := func(name, help string, get func(*arbiterAgg) int64) {
		p.Family(name, "counter", help)
		for _, a := range names {
			p.Sample(name, float64(get(d.arbiters[a])), "arbiter", a)
		}
	}
	if len(names) > 0 {
		perArbiter("sweepd_router_stalls_total",
			"Nomination failures charged to an unready output port, summed over served snapshots.",
			func(a *arbiterAgg) int64 { return a.stalls })
		perArbiter("sweepd_router_credit_waits_total",
			"Nomination failures charged to exhausted credits, summed over served snapshots.",
			func(a *arbiterAgg) int64 { return a.creditWaits })
		perArbiter("sweepd_arbiter_requests_total",
			"Arbitration requests, summed over served snapshots.",
			func(a *arbiterAgg) int64 { return a.requests })
		perArbiter("sweepd_arbiter_grants_total",
			"Arbitration grants, summed over served snapshots.",
			func(a *arbiterAgg) int64 { return a.grants })
		perArbiter("sweepd_arbiter_conflicts_total",
			"Arbitration conflicts (requests minus grants), summed over served snapshots.",
			func(a *arbiterAgg) int64 { return a.conflicts })
		perArbiter("sweepd_arbiter_nomination_failures_total",
			"Granted nominations invalidated at dispatch, summed over served snapshots.",
			func(a *arbiterAgg) int64 { return a.nomFailures })
		perArbiter("sweepd_sink_delivered_packets_total",
			"Packets delivered to their destination, summed over served snapshots.",
			func(a *arbiterAgg) int64 { return a.delivered })
	}
	return p.Err()
}
