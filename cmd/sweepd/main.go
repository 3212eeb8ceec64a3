// Command sweepd is the sweep service daemon: the long-lived face of the
// sharded, cached Coordinator. It accepts declarative simulation Specs —
// one JSON document per request — runs each through the Coordinator, and
// streams the Result back as JSONL, the same byte stream `sweep -json`
// emits. With -cache-dir, completed points persist across requests and
// daemon restarts, so repeated or overlapping Specs only ever simulate
// their missing cells.
//
// Usage:
//
//	sweep -emit-spec -figure 8 | sweepd [-cache-dir DIR] [-shards N] [-workers N]
//	sweepd -http :8080 [-cache-dir DIR] ...
//
// Without -http, sweepd reads a stream of Spec JSON documents from stdin
// (a Spec array is accepted as one document and run in order) and writes
// each Result's JSONL to stdout; a failed Spec produces a single
// {"type":"error",...} line instead, and the stream continues. With
// -http, POST /run takes one Spec document and streams the Result JSONL
// response; GET /healthz reports liveness as a JSON document (status,
// version, uptime) with a bare 200 while healthy and 503 while draining;
// GET /metrics exposes process-lifetime counters (requests, points,
// cache hit ratio, run/shard latency histograms, and per-arbiter router
// telemetry aggregated from metrics-enabled specs) in the Prometheus
// text format; /debug/pprof/ serves the standard profiling endpoints.
// SIGINT/SIGTERM drain the daemon: in-flight requests finish (up to
// -drain-timeout), new work is refused with 503. Diagnostics, including
// the per-run cache statistics, go to stderr.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"alpha21364/internal/cache"
	"alpha21364/internal/experiment"
)

// daemonVersion identifies this build on /healthz; bump alongside the
// release notes in CHANGES.md.
const daemonVersion = "0.9.0"

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintf(os.Stderr, "sweepd: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	logger := log.New(stderr, "sweepd: ", 0)
	fs := flag.NewFlagSet("sweepd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	httpAddr := fs.String("http", "", "listen address for the HTTP API (empty = read Spec JSON from stdin)")
	cacheDir := fs.String("cache-dir", "", "content-addressed result cache directory shared by every request")
	shards := fs.Int("shards", 0, "decompose each sweep into about this many shard specs (0 = one shard per point)")
	workers := fs.Int("workers", 0, "concurrent shard executions per request (0 = one per CPU)")
	drainTimeout := fs.Duration("drain-timeout", time.Minute, "how long SIGTERM waits for in-flight requests before forcing exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	var store *cache.Store
	if *cacheDir != "" {
		var err error
		store, err = cache.Open(*cacheDir)
		if err != nil {
			return err
		}
	}
	svc := newService(store, *shards, *workers, logger)
	if *httpAddr != "" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		logger.Printf("listening on %s", *httpAddr)
		return serveHTTP(ctx, *httpAddr, svc, *drainTimeout, logger)
	}
	return svc.serveStdin(stdin, stdout)
}

// serveHTTP runs the API server until the listener fails or ctx is
// cancelled by a shutdown signal, then drains: the service flips to
// draining (new requests 503), and in-flight requests get up to drain to
// finish streaming before the server is torn down.
func serveHTTP(ctx context.Context, addr string, svc *service, drain time.Duration, logger *log.Logger) error {
	srv := &http.Server{
		Addr:    addr,
		Handler: svc.handler(),
		// Slowloris guard: a connection that never finishes its headers
		// cannot pin a goroutine forever.
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	svc.draining.Store(true)
	logger.Printf("shutdown signal; draining in-flight requests (timeout %s)", drain)
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	logger.Printf("drained cleanly")
	return nil
}

// service holds the daemon's shared execution settings. Each request
// gets its own Coordinator (they are cheap); the cache store is the
// shared state that makes the daemon more than a loop over `sweep`.
type service struct {
	store   *cache.Store
	shards  int
	workers int
	log     *log.Logger
	metrics *daemonMetrics

	start    time.Time
	draining atomic.Bool // set once by shutdown; new requests answer 503
}

func newService(store *cache.Store, shards, workers int, logger *log.Logger) *service {
	return &service{
		store:   store,
		shards:  shards,
		workers: workers,
		log:     logger,
		metrics: newDaemonMetrics(),
		start:   time.Now(),
	}
}

func (s *service) coordinator() *experiment.Coordinator {
	opts := []experiment.CoordinatorOption{
		experiment.WithCoordinatorWorkers(s.workers),
		experiment.WithShards(s.shards),
	}
	if s.store != nil {
		opts = append(opts, experiment.WithCache(s.store))
	}
	return experiment.NewCoordinator(opts...)
}

// runSpec executes one parsed Spec and streams its Result JSONL to w.
func (s *service) runSpec(ctx context.Context, sp experiment.Spec, w io.Writer) error {
	s.metrics.recordRequest()
	co := s.coordinator()
	res, err := co.Run(ctx, sp)
	if err != nil {
		s.metrics.recordError()
		return err
	}
	st := co.Stats()
	s.metrics.recordRun(st, res)
	s.log.Printf("ran spec: %d/%d points cached, %d simulated, %d shard(s)",
		st.CachedPoints, st.TotalPoints, st.SimulatedPoints, st.Shards)
	return res.EncodeJSONL(w)
}

// errLine is the inline failure record of the stdin stream: consumers of
// the multiplexed output distinguish it from Result records by its type.
type errLine struct {
	Type  string `json:"type"`
	Error string `json:"error"`
}

func writeErrLine(w io.Writer, err error) {
	data, merr := json.Marshal(errLine{Type: "error", Error: err.Error()})
	if merr != nil {
		return
	}
	fmt.Fprintf(w, "%s\n", data)
}

// serveStdin runs Specs from a JSON document stream until EOF. Spec
// failures are reported in-band and do not stop the stream; only an
// unreadable stream itself is fatal.
func (s *service) serveStdin(stdin io.Reader, stdout io.Writer) error {
	dec := json.NewDecoder(stdin)
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("read spec stream: %w", err)
		}
		specs, err := experiment.ParseSpecs(raw)
		if err != nil {
			s.metrics.recordBadRequest()
			writeErrLine(stdout, err)
			continue
		}
		for _, sp := range specs {
			if err := s.runSpec(context.Background(), sp, stdout); err != nil {
				writeErrLine(stdout, err)
			}
		}
	}
}

// flushWriter flushes the HTTP response after every write, so the JSONL
// stream reaches the client as it is produced.
type flushWriter struct{ w http.ResponseWriter }

func (f flushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	if fl, ok := f.w.(http.Flusher); ok {
		fl.Flush()
	}
	return n, err
}

// maxSpecBytes bounds a /run request body; Specs are small documents.
const maxSpecBytes = 1 << 20

// readSpecBody reads a bounded request body and parses its Spec,
// answering the request itself on failure (413 for an oversized body,
// 400 for an undecodable one).
func (s *service) readSpecBody(w http.ResponseWriter, r *http.Request) (experiment.Spec, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		s.metrics.recordBadRequest()
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			http.Error(w, "spec document too large", http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return experiment.Spec{}, false
	}
	sp, err := experiment.ParseSpec(body)
	if err != nil {
		s.metrics.recordBadRequest()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return experiment.Spec{}, false
	}
	return sp, true
}

// healthStatus is the GET /healthz readiness document.
type healthStatus struct {
	Status        string  `json:"status"` // "ok" or "draining"
	Version       string  `json:"version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (s *service) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// The readiness contract: bare 200 while healthy, 503 while
		// draining. The JSON body is detail, not contract.
		st := healthStatus{
			Status:        "ok",
			Version:       daemonVersion,
			UptimeSeconds: time.Since(s.start).Seconds(),
		}
		code := http.StatusOK
		if s.draining.Load() {
			st.Status = "draining"
			code = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(st)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.metrics.writeProm(w); err != nil {
			s.log.Printf("metrics write: %v", err)
		}
	})
	// The standard profiling endpoints, on the daemon's own mux (the
	// pprof package only self-registers on http.DefaultServeMux).
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("POST /run", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		sp, ok := s.readSpecBody(w, r)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		if err := s.runSpec(r.Context(), sp, flushWriter{w}); err != nil {
			// Headers may already be out; report in-band like stdin mode.
			writeErrLine(flushWriter{w}, err)
		}
	})
	return mux
}
