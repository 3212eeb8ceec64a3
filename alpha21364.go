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
//     workers and a streaming event channel (NewRunner, Runner.Run,
//     Runner.Stream); a Result is the stable machine-readable outcome
//     with a JSONL encoder (Result.EncodeJSONL, DecodeResultJSONL);
//   - the sweep service: a Coordinator decomposes sweeps into shard-Specs
//     (PlanShards, MergeShardResults), caches completed points in a
//     content-addressed store (SpecHash, OpenResultCache), and resumes
//     interrupted runs byte-identically (NewCoordinator, WithCache);
//     cmd/sweepd serves the same contract over stdin/HTTP;
//   - the five arbitration algorithms the paper compares — SPAA (the
//     21364's Simple Pipelined Arbitration Algorithm), PIM and PIM1, the
//     wrapped Wave-Front Arbiter, and MCM — plus the OPF strawman and the
//     Rotary Rule prioritization (NewArbiter, the Arbiter interface);
//   - the standalone single-router matching model of Figures 8-9
//     (RunStandalone, MCMSaturationLoad);
//   - the cycle-accurate timing model of the 21364 router and its 2D-torus
//     network with the paper's synthetic coherence workloads (RunTiming,
//     RunTimingCtx);
//   - a pluggable workload suite decomposing traffic into spatial
//     patterns × arrival processes × transaction models, with trace
//     record/replay for reproducible cross-algorithm comparisons
//     (WorkloadPattern, WorkloadProcess, WorkloadModel, Trace);
//   - canned Specs for every paper figure (FigureSpecs), run through a
//     Runner by the cmd/sweep tool and the repository's benchmarks; a
//     Result's Panel and Table views are the figure's chart and rows.
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
	"alpha21364/internal/packet"
	"alpha21364/internal/sim"
	"alpha21364/internal/standalone"
	"alpha21364/internal/stats"
	"alpha21364/internal/topology"
	"alpha21364/internal/traffic"
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

// Traffic patterns of the synthetic workloads.
type Pattern = traffic.Pattern

// Destination patterns: the paper's three (§4.2) plus the standard
// transpose, tornado, nearest-neighbor, and hotspot suites.
const (
	Uniform        = traffic.Uniform
	BitReversal    = traffic.BitReversal
	PerfectShuffle = traffic.PerfectShuffle
	Transpose      = traffic.Transpose
	Tornado        = traffic.Tornado
	Neighbor       = traffic.Neighbor
	Hotspot        = traffic.Hotspot
)

// ParsePattern resolves a pattern name such as "bit-reversal"
// (case-insensitive).
func ParsePattern(name string) (Pattern, error) { return traffic.ParsePattern(name) }

// PatternNames lists every destination-pattern name.
func PatternNames() []string { return traffic.PatternNames() }

// Torus is the 2D-torus topology (node ids, coordinates, permutations).
type Torus = topology.Torus

// Node identifies a processor/router in the torus.
type Node = topology.Node

// NewTorus returns a W x H torus.
func NewTorus(w, h int) Torus { return topology.NewTorus(w, h) }

// WorkloadPattern draws request destinations — the spatial axis of a
// workload. Build one with NewWorkloadPattern or the workload suite's
// constructors re-exported below.
type WorkloadPattern = workload.Pattern

// WorkloadProcess is the temporal arrival law of a workload.
type WorkloadProcess = workload.Process

// WorkloadModel defines what a transaction is.
type WorkloadModel = workload.Model

// NewWorkloadPattern resolves a destination pattern by name on a torus.
func NewWorkloadPattern(name string, t Torus) (WorkloadPattern, error) {
	return workload.NewPattern(name, t)
}

// NewWorkloadProcess resolves an arrival process ("bernoulli", "onoff",
// "deterministic") at a mean per-node per-cycle rate.
func NewWorkloadProcess(name string, rate float64) (WorkloadProcess, error) {
	return workload.NewProcess(name, rate)
}

// NewHotspotPattern builds a weighted hotspot pattern: fraction of all
// requests go to the targets (drawn by weight; nil weights = equal), the
// rest are uniform.
func NewHotspotPattern(t Torus, targets []Node, weights []float64, fraction float64) (WorkloadPattern, error) {
	return workload.NewHotspot(t, targets, weights, fraction)
}

// ProcessNames lists every arrival-process name.
func ProcessNames() []string { return workload.ProcessNames() }

// ModelNames lists every transaction-model name.
func ModelNames() []string { return workload.ModelNames() }

// Trace is a recorded injection stream: replaying it re-injects the
// identical packet sequence under any arbiter (TimingSetup.RecordTo /
// TimingSetup.ReplayFrom).
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
// Arbiter.
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

// NewSpec builds a Spec from functional options.
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

// Telemetry types: a metrics-enabled Spec (WithMetrics) attaches one
// MetricsSnapshot — router occupancy, stalls, arbitration counters,
// link utilization — to every ResultPoint; MetricsSidecarOf collects
// them into the standalone document `sweep -metrics` writes, and
// StripVolatile is the canonical normalization for byte-comparing two
// runs of the same Spec.
type (
	MetricsSnapshot = obs.Snapshot
	MetricsSidecar  = experiment.MetricsSidecar
	MetricsPoint    = experiment.MetricsPoint
)

// StripVolatile zeroes a Result's wall-clock fields so repeated runs
// compare byte-identical.
func StripVolatile(r *Result) { experiment.StripVolatile(r) }

// MetricsSidecarOf collects a Result's telemetry snapshots, or nil when
// the run was not metrics-enabled.
func MetricsSidecarOf(r *Result) *MetricsSidecar { return experiment.MetricsSidecarOf(r) }

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
// "9", "10", "10s", "11a", "11b", "11c", or "all"), one Spec per panel.
func FigureSpecs(name string, o Options) ([]Spec, error) { return experiment.FigureSpecs(name, o) }

// Runner executes Specs under a context with bounded workers and a
// streaming event channel; construct with NewRunner.
type Runner = experiment.Runner

// RunnerOption configures a Runner; see WithWorkers and WithEventSink.
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
	EventRunDone    = experiment.EventRunDone
)

// NewRunner returns a Runner; WithWorkers bounds its concurrency and
// WithEventSink observes its event stream.
func NewRunner(opts ...RunnerOption) *Runner { return experiment.NewRunner(opts...) }

var (
	WithWorkers   = experiment.WithWorkers
	WithEventSink = experiment.WithEventSink
)

// Coordinator is the sweep service: it decomposes a Spec's grid into
// shard-Specs, serves cells already present in a content-addressed
// result cache without simulating, fans the missing shards across a
// worker pool, persists completed points as it goes (so a killed run
// resumes by simulating only what is missing), and merges everything
// into the exact byte stream the monolithic Runner produces.
type Coordinator = experiment.Coordinator

// CoordinatorOption configures a Coordinator; see WithCache, WithShards,
// WithCoordinatorWorkers, and WithCoordinatorEventSink.
type CoordinatorOption = experiment.CoordinatorOption

// CoordinatorStats summarizes one Coordinator.Run: grid size, cells
// served from cache, cells simulated, and shards planned.
type CoordinatorStats = experiment.CoordinatorStats

// NewCoordinator returns a Coordinator with one worker per CPU, no
// cache, and one shard per point.
func NewCoordinator(opts ...CoordinatorOption) *Coordinator {
	return experiment.NewCoordinator(opts...)
}

var (
	WithCache                = experiment.WithCache
	WithShards               = experiment.WithShards
	WithCoordinatorWorkers   = experiment.WithCoordinatorWorkers
	WithCoordinatorEventSink = experiment.WithCoordinatorEventSink
)

// ResultCache is a filesystem store of completed result points keyed by
// SpecHash, with atomic per-point writes; open one with OpenResultCache
// and attach it to a Coordinator with WithCache.
type ResultCache = cache.Store

// OpenResultCache opens (creating if needed) a result cache directory.
func OpenResultCache(dir string) (*ResultCache, error) { return cache.Open(dir) }

// SpecHash returns the content address of a Spec's semantic fields: the
// lowercase-hex sha256 of its canonical JSON. Execution knobs (Name,
// Check, Workload.RecordTo) do not participate, so two specs that would
// simulate the same numbers share one cache key.
func SpecHash(s Spec) (string, error) { return experiment.SpecHash(s) }

// Shard is one independently runnable slice of a sweep: a self-contained
// Spec plus the original-grid cells its result points map back to.
type Shard = experiment.Shard

// ShardCell addresses one (series, point) cell of a Spec's grid.
type ShardCell = experiment.ShardCell

// PlanShards decomposes a Spec's grid into at most n shard-Specs (0
// means one per point), deterministically and covering every cell
// exactly once; MergeShardResults reassembles the shards' Results into
// the Result the monolithic Runner would have produced.
func PlanShards(spec Spec, n int) ([]Shard, error) { return experiment.PlanShards(spec, n) }

// MergeShardResults merges shard Results back into grid order; results
// must be index-aligned with shards (nil entries leave their cells
// missing and mark the merged Result partial).
func MergeShardResults(spec Spec, shards []Shard, results []*Result) (*Result, error) {
	return experiment.MergeShardResults(spec, shards, results)
}

// Result is the stable machine-readable outcome of running a Spec, with
// a JSONL encoder (EncodeJSONL) and document form (WriteFile).
type Result = experiment.Result

// ResultSeries and ResultPoint are the rows of a Result.
type (
	ResultSeries = experiment.ResultSeries
	ResultPoint  = experiment.ResultPoint
)

// ResultVersion is the Result schema version this build reads and writes.
const ResultVersion = experiment.ResultVersion

// DecodeResultJSONL reconstructs a Result from its JSONL stream;
// ReadResultFile loads the document form.
func DecodeResultJSONL(r io.Reader) (*Result, error) { return experiment.DecodeResultJSONL(r) }
func ReadResultFile(path string) (*Result, error)    { return experiment.ReadResultFile(path) }

// BenchReport is the machine-readable benchmark report (BENCH_*.json):
// Spec-driven workloads measured through the ordinary Runner, reporting
// points/sec, ns/simulated-cycle, and allocs/op, with a calibration
// constant for cross-machine comparison (BenchReport.Compare).
type BenchReport = experiment.BenchReport

// RunBench executes the fixed benchmark suite serially and returns its
// report; ReadBenchFile loads a saved one.
func RunBench(ctx context.Context) (*BenchReport, error) { return experiment.RunBench(ctx) }
func ReadBenchFile(path string) (*BenchReport, error)    { return experiment.ReadBenchFile(path) }

// PacketArena pools packets with generation-checked handles; simulation
// hot paths draw packets from an arena and release them at delivery.
type PacketArena = packet.Arena

// NewPacketArena returns an empty arena.
func NewPacketArena() *PacketArena { return packet.NewArena() }

// TimingSetup describes one timing-model simulation.
//
// Deprecated: describe simulations as Specs (NewSpec) and run them with
// a Runner; TimingSetup remains for RunTiming and MatrixSpec.
type TimingSetup = experiment.TimingSetup

// TimingResult is a BNF point plus diagnostics.
type TimingResult = experiment.TimingResult

// Point is one latency/throughput measurement.
type Point = stats.Point

// Series is a load-sweep BNF curve.
type Series = stats.Series

// NoWarmup, assigned to TimingSetup.WarmupFraction, disables the warmup
// exclusion so statistics cover the entire run (0 keeps the 0.2 default).
const NoWarmup = experiment.NoWarmup

// RunTiming executes one timing simulation; RunTimingCtx is the same
// under a context (cancellation stops the run promptly).
func RunTiming(s TimingSetup) (TimingResult, error) { return experiment.RunTiming(s) }

// RunTimingCtx executes one timing simulation under a context.
func RunTimingCtx(ctx context.Context, s TimingSetup) (TimingResult, error) {
	return experiment.RunTimingCtx(ctx, s)
}

// Options tunes the canned figure Specs (FigureSpecs): fidelity, seed,
// and the study-wide toggles.
type Options = experiment.Options

// Panel is one BNF chart (several algorithms on one axis).
type Panel = experiment.Panel

// Table is a formatted result grid.
type Table = experiment.Table

// MatrixSpec lifts typed matrix axes into a declarative Spec.
func MatrixSpec(base TimingSetup, kinds []Kind, patterns []Pattern,
	processes []string, rates []float64) Spec {
	return experiment.MatrixSpec(base, kinds, patterns, processes, rates)
}
