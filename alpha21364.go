// Package alpha21364 reproduces "A Comparative Study of Arbitration
// Algorithms for the Alpha 21364 Pipelined Router" (Mukherjee, Silla,
// Bannon, Emer, Lang, Webb — ASPLOS 2002).
//
// It provides, as a library:
//
//   - the Scenario/Runner API: a Spec is a declarative, versioned,
//     JSON-serializable description of one simulation or a whole
//     sweep/matrix (NewSpec and the With* options, ParseSpec,
//     FigureSpecs); a Runner executes Specs under a context with bounded
//     workers and an optional progress-event sink (NewRunner, Runner.Run,
//     WithEventSink); a Result is the stable machine-readable outcome,
//     serialized as one deterministic line of JSON (Result.EncodeJSONL,
//     DecodeResultJSONL);
//   - the sweep service: a Runner given a content-addressed result store
//     (SpecHash, OpenResultCache, WithCache) serves the points it already
//     holds, persists each new one as it completes, and so resumes
//     interrupted runs byte-identically;
//   - the five arbitration algorithms the paper compares — SPAA (the
//     21364's Simple Pipelined Arbitration Algorithm), PIM and PIM1, the
//     wrapped Wave-Front Arbiter, and MCM — plus the OPF strawman and the
//     Rotary Rule prioritization (NewArbiter, the Arbiter interface);
//   - the standalone single-router matching model of Figures 8-9
//     (RunStandalone, MCMSaturationLoad);
//   - the cycle-accurate timing model of the 21364 router and its 2D-torus
//     network with the paper's synthetic coherence workloads (a timing
//     Spec run through a Runner);
//   - a pluggable workload suite decomposing traffic into spatial
//     patterns × arrival processes × transaction models, each chosen by
//     name (PatternNames, ProcessNames, ModelNames), with trace
//     record/replay for reproducible cross-algorithm comparisons (Trace);
//   - canned Specs for every paper figure (FigureSpecs, at full or quick
//     fidelity and seed 1; the Spec options set the rest), run through a
//     Runner by the cmd/sweep tool and the repository's benchmarks; a
//     Result's series are the figure's curves, and Result.Table and
//     Result.Plot render its rows and chart.
//
// The architecture documentation lives in DESIGN.md; measured-vs-paper
// results for every figure live in EXPERIMENTS.md.
package alpha21364

import (
	"context"
	"io"

	"alpha21364/internal/cache"
	"alpha21364/internal/core"
	"alpha21364/internal/experiment"
	"alpha21364/internal/obs"
	"alpha21364/internal/sim"
	"alpha21364/internal/standalone"
	"alpha21364/internal/workload"
)

// Arbitration algorithm kinds (see core.Kind).
type Kind = core.Kind

// Algorithm kinds compared by the paper.
const (
	MCM        = core.KindMCM
	PIM        = core.KindPIM
	PIM1       = core.KindPIM1
	WFABase    = core.KindWFABase
	WFARotary  = core.KindWFARotary
	SPAABase   = core.KindSPAABase
	SPAARotary = core.KindSPAARotary
	OPF        = core.KindOPF
)

// Arbiter is an arbitration algorithm over the router's connection matrix.
type Arbiter = core.Arbiter

// Matrix is the 16x7 request matrix an Arbiter matches over.
type Matrix = core.Matrix

// Grant is one (read port, output port) match.
type Grant = core.Grant

// RNG is the deterministic random number generator used throughout.
type RNG = sim.RNG

// NewRNG returns a seeded deterministic generator.
func NewRNG(seed uint64) *RNG { return sim.NewRNG(seed) }

// NewArbiter constructs an arbitration algorithm. The RNG feeds PIM's
// random grant/accept steps; deterministic algorithms ignore it.
func NewArbiter(k Kind, rng *RNG) Arbiter { return core.New(k, rng) }

// NewRouterMatrix returns an empty request matrix shaped like the 21364:
// 16 read-port rows (rows 0-7 fed by network input ports) and 7 output
// columns.
func NewRouterMatrix() *Matrix { return core.NewRouterMatrix() }

// ParseKind resolves an algorithm name such as "SPAA-rotary".
func ParseKind(name string) (Kind, error) { return core.ParseKind(name) }

// PatternNames lists every destination-pattern name: the paper's three
// (§4.2: "random", "bit-reversal", "perfect-shuffle") plus the standard
// transpose, tornado, nearest-neighbor, and hotspot suites. Names are
// case-insensitive; "uniform" and "shuffle" are accepted aliases.
func PatternNames() []string { return workload.PatternNames() }

// ProcessNames lists every arrival-process name.
func ProcessNames() []string { return workload.ProcessNames() }

// ModelNames lists every transaction-model name.
func ModelNames() []string { return workload.ModelNames() }

// Trace is a recorded injection stream: replaying it re-injects the
// identical packet sequence under any arbiter (WithRecord / WithReplay).
type Trace = workload.Trace

// TraceEvent is one packet creation in a Trace.
type TraceEvent = workload.Event

// ReadTraceFile loads a recorded trace.
func ReadTraceFile(path string) (*Trace, error) { return workload.ReadTraceFile(path) }

// StandaloneConfig parameterizes the single-router matching model.
type StandaloneConfig = standalone.Config

// StandaloneResult reports a standalone run.
type StandaloneResult = standalone.Result

// DefaultStandaloneConfig returns the paper's standalone parameters at the
// given per-input-port load.
func DefaultStandaloneConfig(load float64) StandaloneConfig {
	return standalone.DefaultConfig(load)
}

// RunStandalone measures one algorithm's matches per cycle in the
// standalone model (Figures 8-9).
func RunStandalone(k Kind, cfg StandaloneConfig) StandaloneResult {
	return standalone.Run(k, cfg)
}

// RunStandaloneArbiter is RunStandalone for a caller-constructed arbiter —
// custom PIM/iSLIP iteration counts or user algorithms implementing
// Arbiter. The arbiter must not modify the matrix it is given: the model
// keeps it across cycles and repairs only the cells that arrivals and
// grants change, so a modified cell would corrupt later cycles.
func RunStandaloneArbiter(arb Arbiter, cfg StandaloneConfig) StandaloneResult {
	return standalone.RunArbiter(arb, cfg)
}

// NewISLIP returns McKeown's iSLIP scheduler with the given iteration
// count — the hardware-implementable PIM derivative the paper cites in
// §3.1. Run it through RunStandaloneArbiter.
func NewISLIP(iterations int) Arbiter { return core.NewISLIP(iterations) }

// NewPIMIter returns PIM with a custom iteration count (the paper uses 1
// and log2 N = 4).
func NewPIMIter(iterations int, rng *RNG) Arbiter { return core.NewPIM(iterations, rng) }

// NewWFAPlain returns the original non-wrapped, fixed-priority Wave-Front
// Arbiter, for fairness comparisons against the wrapped WFA the paper
// models.
func NewWFAPlain() Arbiter { return core.NewWFAPlain() }

// MCMSaturationLoad locates the load at which MCM's match rate saturates,
// the unit of Figure 8's horizontal axis.
func MCMSaturationLoad(cfg StandaloneConfig) float64 {
	return standalone.MCMSaturationLoad(cfg)
}

// Spec is a declarative, versioned, JSON-serializable description of one
// simulation or a whole sweep/matrix; build it with NewSpec and the
// With* options, or load canned paper figures with FigureSpecs.
type Spec = experiment.Spec

// SpecOption configures a Spec under construction; see NewSpec.
type SpecOption = experiment.SpecOption

// TopologySpec, WorkloadSpec, TimingSpec, and StandaloneSpec are the
// sections of a Spec.
type (
	TopologySpec   = experiment.TopologySpec
	WorkloadSpec   = experiment.WorkloadSpec
	TimingSpec     = experiment.TimingSpec
	StandaloneSpec = experiment.StandaloneSpec
)

// SpecVersion is the Spec schema version this build reads and writes.
const SpecVersion = experiment.SpecVersion

// Spec modes and standalone sweep axes.
const (
	ModeTiming       = experiment.ModeTiming
	ModeStandalone   = experiment.ModeStandalone
	AxisLoad         = experiment.AxisLoad
	AxisLoadFraction = experiment.AxisLoadFraction
	AxisOccupancy    = experiment.AxisOccupancy
)

// NewSpec builds a Spec by applying its options in order; WithCycles and
// WithSeed reach a standalone section only after WithStandaloneSweep.
func NewSpec(opts ...SpecOption) Spec { return experiment.NewSpec(opts...) }

// Spec construction options; see the experiment package for details.
var (
	WithName            = experiment.WithName
	WithTopology        = experiment.WithTopology
	WithArbiters        = experiment.WithArbiters
	WithPatterns        = experiment.WithPatterns
	WithProcesses       = experiment.WithProcesses
	WithModel           = experiment.WithModel
	WithRates           = experiment.WithRates
	WithMaxOutstanding  = experiment.WithMaxOutstanding
	WithRecord          = experiment.WithRecord
	WithReplay          = experiment.WithReplay
	WithCycles          = experiment.WithCycles
	WithSeed            = experiment.WithSeed
	WithWarmupFraction  = experiment.WithWarmupFraction
	WithScaledPipeline  = experiment.WithScaledPipeline
	WithEpochCycles     = experiment.WithEpochCycles
	WithStandaloneSweep = experiment.WithStandaloneSweep
	WithReplications    = experiment.WithReplications
	WithConfidence      = experiment.WithConfidence
	WithCheck           = experiment.WithCheck
	WithMetrics         = experiment.WithMetrics
)

// MetricsSnapshot is the telemetry a metrics-enabled Spec (WithMetrics)
// attaches to every ResultPoint: router occupancy, stalls, arbitration
// counters, link utilization.
type MetricsSnapshot = obs.Snapshot

// MetricStats and ReplicationStats are the per-point multi-seed
// statistics a replicated Spec (WithReplications) attaches to every
// ResultPoint: mean, sample stddev, and a Student's t confidence
// interval per metric.
type (
	MetricStats      = experiment.MetricStats
	ReplicationStats = experiment.ReplicationStats
)

// ParseSpec parses and validates one Spec from strict JSON (unknown
// fields and versions are rejected); ParseSpecs also accepts an array.
func ParseSpec(data []byte) (Spec, error)      { return experiment.ParseSpec(data) }
func ParseSpecs(data []byte) ([]Spec, error)   { return experiment.ParseSpecs(data) }
func ReadSpecFile(path string) ([]Spec, error) { return experiment.ReadSpecFile(path) }

// WriteSpecFile saves Specs as JSON (an object for one, an array for
// several); EncodeSpec renders the canonical serialized form.
func WriteSpecFile(path string, specs ...Spec) error { return experiment.WriteSpecFile(path, specs...) }
func EncodeSpec(s Spec) ([]byte, error)              { return experiment.EncodeSpec(s) }

// FigureSpecs returns the canned Specs reproducing a paper figure ("8",
// "9", "10", "10s", "11a", "11b", "11c", or "all"), one Spec per panel,
// at seed 1 and the paper's fidelity or, with quick, the shorter CI
// fidelity. Apply any other setting with the Spec options (WithSeed,
// WithCheck, ...).
func FigureSpecs(name string, quick bool) ([]Spec, error) { return experiment.FigureSpecs(name, quick) }

// Runner executes Specs under a context with bounded workers, reporting
// progress events to an optional sink; construct with NewRunner.
type Runner = experiment.Runner

// RunnerOption configures a Runner; see WithWorkers, WithEventSink, and
// WithCache.
type RunnerOption = experiment.RunnerOption

// Event is one element of a Runner's progress stream.
type Event = experiment.Event

// EventType discriminates Runner events.
type EventType = experiment.EventType

// Runner event types.
const (
	EventRunStart   = experiment.EventRunStart
	EventPointDone  = experiment.EventPointDone
	EventSeriesDone = experiment.EventSeriesDone
)

// NewRunner returns a Runner; WithWorkers bounds its concurrency,
// WithEventSink observes its event stream, and WithCache attaches a
// result store whose points it serves and fills.
func NewRunner(opts ...RunnerOption) *Runner { return experiment.NewRunner(opts...) }

var (
	WithWorkers   = experiment.WithWorkers
	WithEventSink = experiment.WithEventSink
	WithCache     = experiment.WithCache
)

// ResultCache is a filesystem store of completed result points keyed by
// SpecHash, with atomic per-point writes; open one with OpenResultCache
// and attach it to a Runner with WithCache.
type ResultCache = cache.Store

// OpenResultCache opens (creating if needed) a result cache directory.
func OpenResultCache(dir string) (*ResultCache, error) { return cache.Open(dir) }

// SpecHash returns the content address of a Spec's semantic fields: the
// lowercase-hex sha256 of its canonical JSON. Execution knobs (Name,
// Check, Workload.RecordTo) do not participate, so two specs that would
// simulate the same numbers share one cache key.
func SpecHash(s Spec) (string, error) { return experiment.SpecHash(s) }

// Result is the stable machine-readable outcome of running a Spec. Its
// one serialized form is a line of JSON (EncodeJSONL); two runs of the
// same Spec encode to the same bytes.
type Result = experiment.Result

// ResultSeries and ResultPoint are the rows of a Result.
type (
	ResultSeries = experiment.ResultSeries
	ResultPoint  = experiment.ResultPoint
)

// ResultVersion is the Result schema version this build reads and writes.
const ResultVersion = experiment.ResultVersion

// DecodeResultJSONL strictly reads one Result line, as EncodeJSONL
// writes it.
func DecodeResultJSONL(r io.Reader) (*Result, error) { return experiment.DecodeResultJSONL(r) }

// BenchReport is the machine-readable benchmark report (BENCH_*.json):
// Spec-driven workloads measured through the ordinary Runner, reporting
// points/sec, ns/simulated-cycle, and allocs/op, with a calibration
// constant for cross-machine comparison (BenchReport.Compare).
type BenchReport = experiment.BenchReport

// RunBench executes the fixed benchmark suite serially and returns its
// report; ReadBenchFile loads a saved one.
func RunBench(ctx context.Context) (*BenchReport, error) { return experiment.RunBench(ctx) }
func ReadBenchFile(path string) (*BenchReport, error)    { return experiment.ReadBenchFile(path) }

// NoWarmup, passed to WithWarmupFraction, disables the warmup exclusion
// so statistics cover the entire run (0 keeps the 0.2 default).
const NoWarmup = experiment.NoWarmup

// Table is a formatted result grid.
type Table = experiment.Table
