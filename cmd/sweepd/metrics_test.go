package main

// metrics_test.go exercises the daemon's observability surface the way
// an operator would: concurrent POST /run traffic with /healthz and
// /metrics scrapes interleaved (the race detector watches the counter
// set), then monotonicity and cache-hit-ratio assertions across a warm
// rerun. Run under -race via `make race-pools`.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"alpha21364/internal/experiment"
)

// metricsSpecJSON is a small metrics-enabled spec, so the served points
// carry snapshots and the per-arbiter series appear.
func metricsSpecJSON(t *testing.T) []byte {
	t.Helper()
	sp := experiment.NewSpec(
		experiment.WithName("sweepd metrics test"),
		experiment.WithTopology(4, 4),
		experiment.WithArbiters("PIM1"),
		experiment.WithPatterns("random"),
		experiment.WithRates(0.02),
		experiment.WithCycles(300),
		experiment.WithSeed(6),
		experiment.WithMetrics(),
	)
	data, err := experiment.EncodeSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// scrape fetches /metrics and parses every sample line into a
// name{labels} -> value map, validating the exposition grammar.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d err %v", resp.StatusCode, err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q, want the 0.0.4 exposition format", ct)
	}
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})?) (-?[0-9.eE+-]+|\+Inf|NaN)$`)
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable exposition line: %q", line)
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[m[1]] = v
	}
	return out
}

// TestMetricsEndpointUnderConcurrentRuns hammers /run from several
// goroutines while scraping /metrics and /healthz, then checks the
// settled counters: every series the README documents must be present,
// counts must match the traffic, and a warm rerun must raise the cache
// hit ratio without any counter going backwards.
func TestMetricsEndpointUnderConcurrentRuns(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	svc := testService(t, dir)
	srv := httptest.NewServer(svc.handler())
	defer srv.Close()
	spec := metricsSpecJSON(t)

	const clients = 4
	post := func() error {
		resp, err := http.Post(srv.URL+"/run", "application/json", bytes.NewReader(spec))
		if err != nil {
			return err
		}
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		return err
	}
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = post()
		}(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/healthz")
			if err == nil {
				resp.Body.Close()
			}
			scrape(t, srv.URL)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	cold := scrape(t, srv.URL)
	for _, name := range []string{
		"sweepd_requests_total", "sweepd_request_errors_total",
		"sweepd_points_total", "sweepd_cache_hits_total",
		"sweepd_points_simulated_total",
		"sweepd_cache_hit_ratio", "sweepd_points_per_second",
		"sweepd_run_duration_seconds_count",
		`sweepd_router_stalls_total{arbiter="PIM1"}`,
		`sweepd_router_credit_waits_total{arbiter="PIM1"}`,
		`sweepd_arbiter_requests_total{arbiter="PIM1"}`,
		`sweepd_arbiter_grants_total{arbiter="PIM1"}`,
		`sweepd_arbiter_conflicts_total{arbiter="PIM1"}`,
		`sweepd_arbiter_nomination_failures_total{arbiter="PIM1"}`,
		`sweepd_sink_delivered_packets_total{arbiter="PIM1"}`,
	} {
		if _, ok := cold[name]; !ok {
			t.Errorf("scrape is missing %s", name)
		}
	}
	if cold["sweepd_requests_total"] != clients {
		t.Errorf("requests_total = %g, want %d", cold["sweepd_requests_total"], clients)
	}
	if cold["sweepd_request_errors_total"] != 0 {
		t.Errorf("request_errors_total = %g, want 0", cold["sweepd_request_errors_total"])
	}
	if cold["sweepd_points_total"] != clients {
		t.Errorf("points_total = %g, want %d (1-point spec x %d clients)", cold["sweepd_points_total"], clients, clients)
	}
	// All clients raced on one cold cache: at least one simulated, and
	// simulated + cache hits account for every served point.
	if cold["sweepd_points_simulated_total"] < 1 {
		t.Errorf("points_simulated_total = %g, want >= 1", cold["sweepd_points_simulated_total"])
	}
	if got := cold["sweepd_cache_hits_total"] + cold["sweepd_points_simulated_total"]; got != cold["sweepd_points_total"] {
		t.Errorf("cache_hits + simulated = %g, want %g", got, cold["sweepd_points_total"])
	}
	if cold["sweepd_run_duration_seconds_count"] != clients {
		t.Errorf("run_duration count = %g, want %d", cold["sweepd_run_duration_seconds_count"], clients)
	}
	if cold[`sweepd_arbiter_grants_total{arbiter="PIM1"}`] <= 0 {
		t.Error("per-arbiter grant counter never incremented; snapshots were not aggregated")
	}

	// Warm rerun: a pure cache read. Counters stay monotonic and the
	// hit ratio rises.
	if err := post(); err != nil {
		t.Fatal(err)
	}
	warm := scrape(t, srv.URL)
	for name, v := range cold {
		if strings.Contains(name, "_total") || strings.HasSuffix(name, "_count") {
			if warm[name] < v {
				t.Errorf("%s went backwards: %g -> %g", name, v, warm[name])
			}
		}
	}
	if warm["sweepd_points_simulated_total"] != cold["sweepd_points_simulated_total"] {
		t.Errorf("warm rerun simulated: %g -> %g", cold["sweepd_points_simulated_total"], warm["sweepd_points_simulated_total"])
	}
	if warm["sweepd_cache_hits_total"] != cold["sweepd_cache_hits_total"]+1 {
		t.Errorf("warm rerun cache hits: %g -> %g, want +1", cold["sweepd_cache_hits_total"], warm["sweepd_cache_hits_total"])
	}
	if warm["sweepd_cache_hit_ratio"] <= cold["sweepd_cache_hit_ratio"] {
		t.Errorf("cache hit ratio did not rise on a warm rerun: %g -> %g",
			cold["sweepd_cache_hit_ratio"], warm["sweepd_cache_hit_ratio"])
	}
}

// TestMetricsCountsBadRequests pins the error counters: an undecodable
// spec document counts as a request and an error, without disturbing
// the point counters.
func TestMetricsCountsBadRequests(t *testing.T) {
	svc := testService(t, "")
	srv := httptest.NewServer(svc.handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/run", "application/json", strings.NewReader(`{"version": 99}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: got %d, want 400", resp.StatusCode)
	}
	got := scrape(t, srv.URL)
	if got["sweepd_requests_total"] != 1 || got["sweepd_request_errors_total"] != 1 {
		t.Errorf("requests=%g errors=%g after one bad document, want 1 and 1",
			got["sweepd_requests_total"], got["sweepd_request_errors_total"])
	}
	if got["sweepd_points_total"] != 0 {
		t.Errorf("points_total = %g after a rejected document, want 0", got["sweepd_points_total"])
	}
}

// TestPprofEndpointServes checks the profiling surface is mounted on
// the daemon's mux.
func TestPprofEndpointServes(t *testing.T) {
	srv := httptest.NewServer(testService(t, "").handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("goroutine")) {
		t.Fatalf("/debug/pprof/: status %d body %q", resp.StatusCode, body)
	}
}
