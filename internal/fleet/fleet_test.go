package fleet

// fleet_test.go is the failure matrix the package exists for: workers
// that die mid-shard, hang past the attempt timeout, return corrupt or
// truncated JSONL, or are all dead at once. Every recovery path is
// asserted against the one contract that matters — the fleet-merged
// Result is byte-identical to a monolithic in-process run — plus the
// bookkeeping around it (retry counts, tail-only re-dispatch, worker
// liveness transitions, heartbeat revival).

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"alpha21364/internal/experiment"
)

// testSpec is a 1-series, 3-point sweep small enough to simulate in
// milliseconds but wide enough that a shard has a salvageable prefix.
func testSpec(t *testing.T, opts ...experiment.SpecOption) experiment.Spec {
	t.Helper()
	base := []experiment.SpecOption{
		experiment.WithName("fleet test"),
		experiment.WithTopology(4, 4),
		experiment.WithArbiters("PIM1"),
		experiment.WithPatterns("random"),
		experiment.WithRates(0.02, 0.04, 0.06),
		experiment.WithCycles(300),
		experiment.WithSeed(6),
	}
	return experiment.NewSpec(append(base, opts...)...)
}

// monolithic runs the spec through the in-process Runner and returns its
// stable (volatile-stripped) JSONL bytes — the byte-identity reference.
func monolithic(t *testing.T, sp experiment.Spec) string {
	t.Helper()
	res, err := experiment.NewRunner(experiment.WithWorkers(1)).Run(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	return stableJSONL(t, res)
}

func stableJSONL(t *testing.T, res *experiment.Result) string {
	t.Helper()
	experiment.StripVolatile(res)
	var buf bytes.Buffer
	if err := res.EncodeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// simulateShard is the reference worker body: decode the spec, run it
// serially, return its full JSONL — what a healthy sweepd does.
func simulateShard(t *testing.T, r *http.Request) ([]byte, error) {
	t.Helper()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, err
	}
	sp, err := experiment.ParseSpec(body)
	if err != nil {
		return nil, err
	}
	res, err := experiment.NewRunner(experiment.WithWorkers(1)).Run(r.Context(), sp)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := res.EncodeJSONL(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// newWorker spins up a fake sweepd whose POST /shard behavior is decided
// per request by behave(n, full JSONL bytes, w): return true to take
// over the response. behave == nil (or returning false) streams the full
// result — the healthy path.
func newWorker(t *testing.T, behave func(n int, full []byte, w http.ResponseWriter) bool) *httptest.Server {
	t.Helper()
	var n atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("POST /shard", func(w http.ResponseWriter, r *http.Request) {
		full, err := simulateShard(t, r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if behave != nil && behave(int(n.Add(1)), full, w) {
			return
		}
		w.Write(full)
	})
	return httptest.NewServer(mux)
}

// newFleet builds a Fleet over the given servers with test-sized
// backoffs, registered for cleanup.
func newFleet(t *testing.T, addrs []string, opts ...Option) *Fleet {
	t.Helper()
	opts = append([]Option{WithBackoff(time.Millisecond, 5*time.Millisecond)}, opts...)
	f, err := New(addrs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// runFleet executes the spec through a Coordinator dispatching to f.
func runFleet(t *testing.T, f *Fleet, sp experiment.Spec, shards int) (*experiment.Result, experiment.CoordinatorStats, error) {
	t.Helper()
	co := experiment.NewCoordinator(
		experiment.WithCoordinatorWorkers(1),
		experiment.WithShards(shards),
		experiment.WithShardExecutor(f),
	)
	res, err := co.Run(context.Background(), sp)
	return res, co.Stats(), err
}

// TestFleetMatchesMonolithic is the clean-path contract: a sweep
// dispatched across two healthy workers merges into exactly the bytes a
// single in-process run produces, and the progress events agree with the
// local executor's count.
func TestFleetMatchesMonolithic(t *testing.T) {
	sp := testSpec(t)
	w1 := newWorker(t, nil)
	defer w1.Close()
	w2 := newWorker(t, nil)
	defer w2.Close()
	f := newFleet(t, []string{w1.URL, w2.URL})

	var events atomic.Int64
	co := experiment.NewCoordinator(
		experiment.WithShardExecutor(f),
		experiment.WithCoordinatorEventSink(func(e experiment.Event) {
			if e.Type == experiment.EventPointDone {
				events.Add(1)
			}
		}),
	)
	res, err := co.Run(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stableJSONL(t, res), monolithic(t, sp); got != want {
		t.Errorf("fleet bytes diverge from monolithic run:\nfleet:\n%s\nmono:\n%s", got, want)
	}
	st := co.Stats()
	if st.Shards != 3 || st.ShardAttempts != 3 || st.ShardRetries != 0 {
		t.Errorf("stats = %d shards, %d attempts, %d retries; want 3, 3, 0",
			st.Shards, st.ShardAttempts, st.ShardRetries)
	}
	if events.Load() != 3 {
		t.Errorf("point-done events = %d, want 3 (one per point)", events.Load())
	}
	var attempts int64
	for _, ws := range f.Status() {
		if !ws.Alive {
			t.Errorf("worker %s marked dead on the clean path", ws.Addr)
		}
		attempts += ws.Attempts
	}
	if attempts != 3 {
		t.Errorf("per-worker attempts sum to %d, want 3", attempts)
	}
}

// TestFleetReplicationsMatchMonolithic pins byte-identity and event
// accounting when each point replicates: statistics fold inside the
// worker, and the dispatcher emits one event per replication.
func TestFleetReplicationsMatchMonolithic(t *testing.T) {
	sp := testSpec(t, experiment.WithReplications(2))
	w := newWorker(t, nil)
	defer w.Close()
	f := newFleet(t, []string{w.URL})

	var events atomic.Int64
	co := experiment.NewCoordinator(
		experiment.WithShardExecutor(f),
		experiment.WithCoordinatorEventSink(func(e experiment.Event) {
			if e.Type == experiment.EventPointDone {
				events.Add(1)
			}
		}),
	)
	res, err := co.Run(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stableJSONL(t, res), monolithic(t, sp); got != want {
		t.Error("replicated fleet bytes diverge from monolithic run")
	}
	if events.Load() != 6 {
		t.Errorf("point-done events = %d, want 6 (3 points x 2 replications)", events.Load())
	}
}

// TestFleetSalvagesPrefixAfterMidShardDeath kills a worker after it has
// streamed one whole point and half of the next line. The dispatcher
// must keep the intact point, re-dispatch only the 2-point tail, and
// still merge to the monolithic bytes.
func TestFleetSalvagesPrefixAfterMidShardDeath(t *testing.T) {
	sp := testSpec(t)
	var rates []int // points requested per attempt, in order
	w := newWorker(t, func(n int, full []byte, w http.ResponseWriter) bool {
		lines := bytes.SplitAfter(full, []byte("\n"))
		rates = append(rates, len(lines)-3) // minus header, series, trailing empty
		if n > 1 {
			return false
		}
		// header + series + first point, then half a point line, then die.
		w.Write(lines[0])
		w.Write(lines[1])
		w.Write(lines[2])
		w.Write(lines[3][:len(lines[3])/2])
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		panic(http.ErrAbortHandler)
	})
	defer w.Close()
	f := newFleet(t, []string{w.URL})

	res, st, err := runFleet(t, f, sp, 1) // one 3-point shard
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stableJSONL(t, res), monolithic(t, sp); got != want {
		t.Error("salvaged fleet bytes diverge from monolithic run")
	}
	if st.Shards != 1 || st.ShardAttempts != 2 || st.ShardRetries != 1 {
		t.Errorf("stats = %d shards, %d attempts, %d retries; want 1, 2, 1",
			st.Shards, st.ShardAttempts, st.ShardRetries)
	}
	if len(rates) != 2 || rates[0] != 3 || rates[1] != 2 {
		t.Errorf("attempt sizes = %v, want [3 2]: the retry must re-dispatch only the missing tail", rates)
	}
}

// TestFleetRetriesCorruptStream sends garbage where a point line should
// be; the decoder rejects it and the shard is retried from scratch.
func TestFleetRetriesCorruptStream(t *testing.T) {
	sp := testSpec(t)
	w := newWorker(t, func(n int, full []byte, w http.ResponseWriter) bool {
		if n > 1 {
			return false
		}
		io.WriteString(w, "this is not JSONL\n")
		return true
	})
	defer w.Close()
	f := newFleet(t, []string{w.URL})

	res, st, err := runFleet(t, f, sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stableJSONL(t, res), monolithic(t, sp); got != want {
		t.Error("fleet bytes diverge from monolithic run after a corrupt stream")
	}
	if st.ShardRetries != 1 {
		t.Errorf("retries = %d, want 1", st.ShardRetries)
	}
}

// TestFleetRetriesInBandError covers a worker whose run fails after the
// header: the stream carries a {"type":"error"} record, the dispatcher
// treats it as a failed attempt, and the retry completes the shard.
func TestFleetRetriesInBandError(t *testing.T) {
	sp := testSpec(t)
	w := newWorker(t, func(n int, full []byte, w http.ResponseWriter) bool {
		if n > 1 {
			return false
		}
		lines := bytes.SplitAfter(full, []byte("\n"))
		w.Write(lines[0])
		w.Write(lines[1])
		io.WriteString(w, `{"type":"error","error":"simulated worker failure"}`+"\n")
		return true
	})
	defer w.Close()
	f := newFleet(t, []string{w.URL})

	res, st, err := runFleet(t, f, sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stableJSONL(t, res), monolithic(t, sp); got != want {
		t.Error("fleet bytes diverge from monolithic run after an in-band error")
	}
	if st.ShardAttempts != 2 {
		t.Errorf("attempts = %d, want 2", st.ShardAttempts)
	}
}

// TestFleetHangTimesOutAndFailsOver points the fleet at one worker that
// hangs forever and one healthy one. The attempt timeout must cut the
// hang, bench the worker, and finish the sweep elsewhere — still
// byte-identical.
func TestFleetHangTimesOutAndFailsOver(t *testing.T) {
	// One rate point keeps the good worker's attempt well inside the
	// 100 ms timeout: under -race on a 2-CPU host with three busy loops
	// the default three-point shard took 47-143 ms (one point: 19-41 ms),
	// so the good worker would often overrun it too.
	sp := testSpec(t, experiment.WithRates(0.02))
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("POST /shard", func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server notices the client hanging up
		// (HTTP/1 disconnects only surface through reads).
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done() // then hang until the client gives up
	})
	hung := httptest.NewServer(mux)
	defer hung.Close()
	good := newWorker(t, nil)
	defer good.Close()

	// A long heartbeat keeps the hung worker from being revived mid-test.
	f := newFleet(t, []string{hung.URL, good.URL},
		WithTimeout(100*time.Millisecond), WithHeartbeatInterval(time.Hour))
	res, st, err := runFleet(t, f, sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stableJSONL(t, res), monolithic(t, sp); got != want {
		t.Error("fleet bytes diverge from monolithic run after a hang failover")
	}
	if st.ShardRetries < 1 {
		t.Errorf("retries = %d, want >= 1 (the hung attempt)", st.ShardRetries)
	}
	var hungSt, goodSt WorkerStatus
	for _, ws := range f.Status() {
		switch ws.Addr {
		case strings.TrimRight(hung.URL, "/"):
			hungSt = ws
		case strings.TrimRight(good.URL, "/"):
			goodSt = ws
		}
	}
	if hungSt.Failed < 1 || hungSt.Done != 0 {
		t.Errorf("hung worker: %d failed, %d done attempts; want >= 1 failed and 0 done", hungSt.Failed, hungSt.Done)
	}
	if goodSt.Done != 1 {
		t.Errorf("good worker: %d done attempts, want exactly 1", goodSt.Done)
	}
	// On a loaded host the good worker's attempt can overrun the timeout
	// too. With both workers benched, the all-dead round's /healthz probe
	// revives both by design (the hung worker answers /healthz), so the
	// hung worker's liveness proves the hang benched it only when the good
	// worker never failed.
	if goodSt.Failed == 0 && hungSt.Alive {
		t.Error("hung worker still marked alive")
	}
}

// TestFleetAllWorkersDead exhausts the retry budget against a dead
// address: the error must name the no-workers condition and the shard
// must not pretend to have run.
func TestFleetAllWorkersDead(t *testing.T) {
	sp := testSpec(t)
	dead := httptest.NewServer(http.NotFoundHandler())
	addr := dead.URL
	dead.Close() // nothing listens here anymore

	f := newFleet(t, []string{addr}, WithRetries(2), WithHeartbeatInterval(time.Hour))
	shards, err := experiment.PlanShards(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, attempts, err := f.ExecuteShard(context.Background(), shards[0], nil)
	if err == nil {
		t.Fatal("expected an error with every worker dead")
	}
	if !errors.Is(err, ErrNoWorkers) {
		t.Errorf("err = %v, want ErrNoWorkers after the first refused dial", err)
	}
	if res != nil {
		t.Errorf("res = %+v, want nil (nothing was ever received)", res)
	}
	if attempts != 1 {
		t.Errorf("attempts = %d, want 1 (one dial, then no workers left)", attempts)
	}
}

// TestFleetHeartbeatRevivesWorker benches a worker by hand and waits for
// the /healthz probe loop to bring it back.
func TestFleetHeartbeatRevivesWorker(t *testing.T) {
	w := newWorker(t, nil)
	defer w.Close()
	f := newFleet(t, []string{w.URL}, WithHeartbeatInterval(10*time.Millisecond))
	f.setAlive(f.workers[0], false, "test bench")

	deadline := time.Now().Add(5 * time.Second)
	for !f.Status()[0].Alive {
		if time.Now().After(deadline) {
			t.Fatal("heartbeat never revived the worker")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFleetSaturatedWorkerRetries treats 503 like any other failed
// attempt: back off, re-pick, succeed once capacity frees up.
func TestFleetSaturatedWorkerRetries(t *testing.T) {
	sp := testSpec(t)
	w := newWorker(t, func(n int, full []byte, w http.ResponseWriter) bool {
		if n > 1 {
			return false
		}
		http.Error(w, "worker saturated", http.StatusServiceUnavailable)
		return true
	})
	defer w.Close()
	// The saturated attempt benches the worker; a fast heartbeat must
	// revive it before the retry budget runs out.
	f := newFleet(t, []string{w.URL},
		WithHeartbeatInterval(5*time.Millisecond),
		WithBackoff(20*time.Millisecond, 50*time.Millisecond))
	res, st, err := runFleet(t, f, sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stableJSONL(t, res), monolithic(t, sp); got != want {
		t.Error("fleet bytes diverge from monolithic run after a 503 retry")
	}
	if st.ShardAttempts < 2 {
		t.Errorf("attempts = %d, want >= 2", st.ShardAttempts)
	}
}

// TestFleetPartialSurvivesExhaustion gives the fleet one point per
// attempt and too few retries to finish: the returned Result must be the
// contiguous prefix, marked Partial, with the error surfaced.
func TestFleetPartialSurvivesExhaustion(t *testing.T) {
	sp := testSpec(t)
	w := newWorker(t, func(n int, full []byte, w http.ResponseWriter) bool {
		lines := bytes.SplitAfter(full, []byte("\n"))
		// One whole point per attempt, then die.
		w.Write(lines[0])
		w.Write(lines[1])
		w.Write(lines[2])
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		panic(http.ErrAbortHandler)
	})
	defer w.Close()
	f := newFleet(t, []string{w.URL}, WithRetries(1), WithHeartbeatInterval(5*time.Millisecond))

	shards, err := experiment.PlanShards(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, attempts, err := f.ExecuteShard(context.Background(), shards[0], nil)
	if err == nil {
		t.Fatal("expected an error after exhausting retries")
	}
	if attempts != 2 {
		t.Errorf("attempts = %d, want 2", attempts)
	}
	if res == nil || !res.Partial {
		t.Fatalf("res = %+v, want a Partial prefix result", res)
	}
	if got := len(res.Series[0].Points); got != 2 {
		t.Errorf("salvaged points = %d, want 2 (one per attempt)", got)
	}
}

// TestNormalizeAddr pins the accepted address spellings.
func TestNormalizeAddr(t *testing.T) {
	cases := []struct {
		in, want string
		ok       bool
	}{
		{"127.0.0.1:9000", "http://127.0.0.1:9000", true},
		{"http://host:80/", "http://host:80", true},
		{"https://host", "https://host", true},
		{" host:1 ", "http://host:1", true},
		{"", "", false},
		{"ftp://host", "", false},
		{"http://", "", false},
	}
	for _, c := range cases {
		got, err := normalizeAddr(c.in)
		if c.ok != (err == nil) || got != c.want {
			t.Errorf("normalizeAddr(%q) = %q, %v; want %q, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}

// TestNewRejectsEmptyFleet pins the constructor's guard rails.
func TestNewRejectsEmptyFleet(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("New(nil) accepted an empty fleet")
	}
	if _, err := New([]string{"bad scheme://x"}); err == nil {
		t.Error("New accepted an invalid address")
	}
	f, err := New([]string{"h:1", "h:1", "http://h:1/"})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if len(f.Status()) != 1 {
		t.Errorf("duplicate addresses were not collapsed: %d workers", len(f.Status()))
	}
}

// TestPickPrefersIdleWorkers checks the least-inflight policy and the
// all-dead nil.
func TestPickPrefersIdleWorkers(t *testing.T) {
	f, err := New([]string{"h1:1", "h2:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.workers[0].inflight.Store(3)
	for i := 0; i < 4; i++ {
		if w := f.pick(); w != f.workers[1] {
			t.Fatalf("pick chose the busier worker")
		}
	}
	f.workers[1].alive.Store(false)
	if w := f.pick(); w != f.workers[0] {
		t.Error("pick skipped the only alive worker")
	}
	f.workers[0].alive.Store(false)
	if w := f.pick(); w != nil {
		t.Error("pick invented a worker with everyone dead")
	}
}
