package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"alpha21364/internal/cache"
	"alpha21364/internal/experiment"
)

func smallSpecJSON(t *testing.T) []byte {
	t.Helper()
	sp := experiment.NewSpec(
		experiment.WithName("sweepd test"),
		experiment.WithTopology(4, 4),
		experiment.WithArbiters("PIM1"),
		experiment.WithPatterns("random"),
		experiment.WithRates(0.02),
		experiment.WithCycles(300),
		experiment.WithSeed(6),
	)
	data, err := experiment.EncodeSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func testService(t *testing.T, dir string) *service {
	t.Helper()
	var store *cache.Store
	if dir != "" {
		var err error
		store, err = cache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
	}
	return newService(store, 0, 1, log.New(io.Discard, "", 0))
}

// TestStdinStreamsResults feeds a good spec, a broken one, and a second
// good spec through stdin mode: two decodable Result streams and one
// in-band error line must come out, in order, and the stream must not
// stop at the failure.
func TestStdinStreamsResults(t *testing.T) {
	spec := smallSpecJSON(t)
	input := string(spec) + "\n" + `{"version": 99}` + "\n" + string(spec) + "\n"
	var stdout, stderr bytes.Buffer
	err := run([]string{"-workers", "1"}, strings.NewReader(input), &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	out := stdout.String()
	if got := strings.Count(out, `"type":"result"`); got != 2 {
		t.Fatalf("want 2 result headers, got %d:\n%s", got, out)
	}
	if got := strings.Count(out, `"type":"error"`); got != 1 {
		t.Fatalf("want 1 in-band error line, got %d:\n%s", got, out)
	}
	// The error line must sit between the two result streams.
	first := strings.Index(out, `"type":"error"`)
	last := strings.LastIndex(out, `"type":"result"`)
	if first > last {
		t.Fatalf("error line after the last result; the stream stopped instead of continuing:\n%s", out)
	}
}

// TestStdinSpecArray runs a Spec array document as one stream entry.
func TestStdinSpecArray(t *testing.T) {
	spec := smallSpecJSON(t)
	input := "[" + string(spec) + "," + string(spec) + "]"
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-workers", "1"}, strings.NewReader(input), &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	if got := strings.Count(stdout.String(), `"type":"result"`); got != 2 {
		t.Fatalf("want 2 results from the array, got %d", got)
	}
}

// TestHTTPRunStreamsResult exercises the HTTP surface: /healthz, a good
// /run (decodable Result JSONL), a bad /run (400), and a wrong method.
func TestHTTPRunStreamsResult(t *testing.T) {
	srv := httptest.NewServer(testService(t, "").handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/run", "application/json", bytes.NewReader(smallSpecJSON(t)))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/run: %d\n%s", resp.StatusCode, body)
	}
	res, err := experiment.DecodeResultJSONL(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/run response is not a Result stream: %v\n%s", err, body)
	}
	if len(res.Series) != 1 || len(res.Series[0].Points) != 1 {
		t.Fatalf("unexpected result shape: %d series", len(res.Series))
	}

	resp, err = http.Post(srv.URL+"/run", "application/json", strings.NewReader(`{"version": 99}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: got %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("GET /run should not be accepted")
	}
}

// TestCachePersistsAcrossRequests posts the same spec twice against one
// cache directory and checks the second request is served without
// simulating — the daemon's whole reason to exist.
func TestCachePersistsAcrossRequests(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	var logBuf bytes.Buffer
	svc := testService(t, dir)
	svc.log = log.New(&logBuf, "", 0)
	srv := httptest.NewServer(svc.handler())
	defer srv.Close()

	var bodies [2][]byte
	for i := range bodies {
		resp, err := http.Post(srv.URL+"/run", "application/json", bytes.NewReader(smallSpecJSON(t)))
		if err != nil {
			t.Fatal(err)
		}
		bodies[i], err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d err %v", i, resp.StatusCode, err)
		}
	}
	logs := logBuf.String()
	if !strings.Contains(logs, "0/1 points cached, 1 simulated") {
		t.Fatalf("first request did not simulate:\n%s", logs)
	}
	if !strings.Contains(logs, "1/1 points cached, 0 simulated") {
		t.Fatalf("second request was not a pure cache read:\n%s", logs)
	}
	strip := func(b []byte) string {
		res, err := experiment.DecodeResultJSONL(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		res.ElapsedNS = 0
		var buf bytes.Buffer
		if err := res.EncodeJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if strip(bodies[0]) != strip(bodies[1]) {
		t.Fatal("cached response diverged from simulated response")
	}
}

// TestBodyLimitAnswers413 sends an oversized document to /run;
// MaxBytesReader must cut it off with 413.
func TestBodyLimitAnswers413(t *testing.T) {
	srv := httptest.NewServer(testService(t, "").handler())
	defer srv.Close()

	huge := bytes.Repeat([]byte("x"), maxSpecBytes+2)
	resp, err := http.Post(srv.URL+"/run", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("/run with oversized body: got %d, want 413", resp.StatusCode)
	}
}

// TestHealthzReadinessDocument checks the JSON detail while healthy and
// the 503 flip while draining.
func TestHealthzReadinessDocument(t *testing.T) {
	svc := testService(t, "")
	srv := httptest.NewServer(svc.handler())
	defer srv.Close()

	get := func() (int, healthStatus) {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st healthStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("healthz is not a JSON document: %v", err)
		}
		return resp.StatusCode, st
	}

	code, st := get()
	if code != http.StatusOK || st.Status != "ok" {
		t.Fatalf("healthy /healthz: %d %q, want 200 ok", code, st.Status)
	}
	if st.Version != daemonVersion {
		t.Errorf("version = %q, want %q", st.Version, daemonVersion)
	}
	if st.UptimeSeconds < 0 {
		t.Errorf("uptime = %g, want >= 0", st.UptimeSeconds)
	}

	svc.draining.Store(true)
	code, st = get()
	if code != http.StatusServiceUnavailable || st.Status != "draining" {
		t.Errorf("draining /healthz: %d %q, want 503 draining", code, st.Status)
	}
}

// TestDrainingRefusesNewWork flips the drain flag and checks /run
// refuses with 503 while /metrics stays scrapeable.
func TestDrainingRefusesNewWork(t *testing.T) {
	svc := testService(t, "")
	svc.draining.Store(true)
	srv := httptest.NewServer(svc.handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/run", "application/json", bytes.NewReader(smallSpecJSON(t)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining /run: got %d, want 503", resp.StatusCode)
	}
	scrape(t, srv.URL) // still serves metrics while draining
}
