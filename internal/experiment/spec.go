package experiment

// spec.go is the declarative half of the Scenario/Runner API: a Spec is a
// fully serializable, versioned description of one simulation or a whole
// sweep/matrix — topology, arbiters, pattern × process × model axes,
// rates, cycles, warmup, seed, trace record/replay — that a Runner can
// execute without any hand-written Go. The paper's figures are canned
// Specs (FigureSpecs); cmd/sweep loads and saves them as JSON files.
//
// Schema stability rules: parsing is strict (unknown fields and unknown
// versions are rejected, so a v2 document never half-loads into a v1
// reader), Validate never mutates the spec, and marshal → parse →
// marshal is byte-identical — all three are enforced by golden-file and
// fuzz tests.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"alpha21364/internal/core"
	"alpha21364/internal/standalone"
	"alpha21364/internal/topology"
	"alpha21364/internal/traffic"
	"alpha21364/internal/workload"
)

// SpecVersion is the Spec schema version this package reads and writes.
const SpecVersion = 1

// Spec modes: the cycle-accurate torus timing model (the default) or the
// single-router standalone matching model of Figures 8-9.
const (
	ModeTiming     = "timing"
	ModeStandalone = "standalone"
)

// Spec is a declarative description of a simulation study. The zero value
// is invalid; build Specs with NewSpec and the With* options, load them
// with ParseSpec/ReadSpecFile, or start from a canned figure (FigureSpecs).
type Spec struct {
	// Version must be SpecVersion.
	Version int `json:"version"`
	// Name titles the study; tables and progress labels use it verbatim.
	Name string `json:"name,omitempty"`
	// Mode is ModeTiming ("" means timing) or ModeStandalone.
	Mode string `json:"mode,omitempty"`

	// Arbiters names the arbitration algorithms to compare (core.ParseKind
	// spellings, e.g. "SPAA-rotary"). One result series per arbiter — or
	// per arbiter × pattern × process combination when those axes fan out.
	Arbiters []string `json:"arbiters"`

	// Replications, when greater than 1, runs every point that many times
	// with deterministically derived per-replication seeds and attaches
	// mean/stddev/confidence-interval statistics to each point
	// (ResultPoint.Replication). 0 and 1 both mean a single run whose
	// points are byte-identical to those of a spec without the field:
	// replication 0 always runs the spec's own seed.
	Replications int `json:"replications,omitempty"`
	// Confidence is the two-sided confidence level of the replication
	// interval; 0 means the 0.95 default. It requires Replications > 1.
	Confidence float64 `json:"confidence,omitempty"`
	// Check enables the online invariant oracle (internal/check) on every
	// simulation of the run: packet conservation cross-checked against the
	// packet arena, per-(port, channel) occupancy and credit bounds, grant
	// legality for every arbiter, and a deadlock/livelock watchdog. A
	// violated invariant fails the run with a structured report. In
	// standalone mode the oracle validates every arbitration pass's
	// connection matrix and matching. Checking never changes simulation
	// results — a clean checked run measures exactly the same numbers.
	Check bool `json:"check,omitempty"`
	// Metrics enables the telemetry layer (internal/obs) on every timing
	// simulation of the run: per-router occupancy/stall/arbitration
	// counters, per-link utilization, and sink throughput, snapshotted
	// into each ResultPoint.Metrics. Telemetry is observation-only — a
	// metrics-enabled run measures exactly the same numbers — but unlike
	// Check it changes the Result bytes (the snapshots ride along), so it
	// participates in the spec hash: cached metric-laden points are never
	// served to a run that did not ask for them, or vice versa. Timing
	// mode only; the standalone model has no router simulation to observe.
	Metrics bool `json:"metrics,omitempty"`

	// Topology, Workload, and Timing describe timing-mode runs; they must
	// be nil in standalone mode.
	Topology *TopologySpec `json:"topology,omitempty"`
	Workload *WorkloadSpec `json:"workload,omitempty"`
	Timing   *TimingSpec   `json:"timing,omitempty"`

	// Standalone describes the standalone-model sweep; it must be nil in
	// timing mode.
	Standalone *StandaloneSpec `json:"standalone,omitempty"`
}

// TopologySpec is the 2D-torus shape.
type TopologySpec struct {
	Width  int `json:"width"`
	Height int `json:"height"`
}

// WorkloadSpec is the workload matrix: spatial patterns × arrival
// processes × one transaction model, swept over injection rates, or a
// trace replay in place of all four.
type WorkloadSpec struct {
	// Patterns are destination-pattern names (traffic.ParsePattern
	// spellings); empty means ["random"].
	Patterns []string `json:"patterns,omitempty"`
	// Processes are arrival-process names; empty means ["bernoulli"].
	Processes []string `json:"processes,omitempty"`
	// Model is the transaction-model name; "" means "coherence".
	Model string `json:"model,omitempty"`
	// Rates are injection rates in new transactions per node per router
	// cycle; required unless ReplayFrom is set.
	Rates []float64 `json:"rates,omitempty"`
	// MaxOutstanding caps in-flight transactions per processor; 0 means
	// the 21364 default of 16.
	MaxOutstanding int `json:"max_outstanding,omitempty"`
	// RecordTo captures the injection stream to a trace file; it requires
	// a single-scenario spec (one arbiter, pattern, process, and rate).
	RecordTo string `json:"record_to,omitempty"`
	// ReplayFrom replays a recorded trace instead of generating traffic;
	// it contradicts Patterns, Processes, Rates, and RecordTo.
	ReplayFrom string `json:"replay_from,omitempty"`
}

// TimingSpec is the fidelity half of a timing run.
type TimingSpec struct {
	// Cycles is the router-cycle count per simulation (paper: 75,000).
	Cycles int `json:"cycles"`
	// WarmupFraction is the share of the run excluded from statistics:
	// 0 means the 0.2 default, negative (NoWarmup) disables the warmup.
	WarmupFraction float64 `json:"warmup_fraction,omitempty"`
	// Seed feeds every RNG stream of the run.
	Seed uint64 `json:"seed,omitempty"`
	// ScalePipeline doubles pipeline depth and clock (Figure 11a).
	ScalePipeline bool `json:"scale_pipeline,omitempty"`
	// EpochCycles, when positive, tracks delivered flits per epoch of that
	// many cycles (the §3.4 saturation-oscillation measure).
	EpochCycles int `json:"epoch_cycles,omitempty"`
	// TorusShards, when positive, runs each simulation spatially sharded
	// into that many row bands with their own tick-wheel engines (CMB
	// lookahead synchronization; byte-identical to the monolithic
	// engine). 0 keeps the single-engine path. Included in the spec hash
	// when set, so a sharded sweep caches separately from a monolithic
	// one even though the results match byte for byte.
	TorusShards int `json:"torus_shards,omitempty"`
}

// Standalone axes.
const (
	// AxisLoad sweeps absolute load (packets per input port per cycle).
	AxisLoad = "load"
	// AxisLoadFraction sweeps fractions of the MCM saturation load
	// (Figure 8's horizontal axis).
	AxisLoadFraction = "load-fraction"
	// AxisOccupancy sweeps output-port occupancy at fixed load (Figure 9).
	AxisOccupancy = "occupancy"
)

// StandaloneSpec is a standalone-model sweep: each arbiter is run once
// per axis value.
type StandaloneSpec struct {
	// Cycles is the iteration count to average over (paper: 1000).
	Cycles int `json:"cycles"`
	// Seed feeds the arrival RNG; 0 means 1.
	Seed uint64 `json:"seed,omitempty"`
	// Axis is AxisLoad, AxisLoadFraction, or AxisOccupancy.
	Axis string `json:"axis"`
	// Values are the axis points.
	Values []float64 `json:"values"`
	// Occupancy fixes the output-port busy probability for the load axes;
	// it must be 0 with AxisOccupancy.
	Occupancy float64 `json:"occupancy,omitempty"`
	// Load fixes the absolute load for AxisOccupancy; 0 means the MCM
	// saturation load. It must be 0 with the load axes.
	Load float64 `json:"load,omitempty"`
}

// SpecOption mutates a Spec under construction; see NewSpec.
type SpecOption func(*Spec)

// NewSpec builds a Spec from functional options. Option order does not
// matter: WithCycles/WithSeed applied before WithStandaloneSweep land in
// a timing section that NewSpec migrates into the standalone one.
func NewSpec(opts ...SpecOption) Spec {
	s := Spec{Version: SpecVersion}
	for _, opt := range opts {
		opt(&s)
	}
	// Mode-aware options (WithCycles, WithSeed) applied before the spec
	// switched to standalone mode parked their values in a timing section.
	// When that section carries nothing else and no other timing sections
	// exist, it is unambiguous: move the values where they belong.
	if s.Mode == ModeStandalone && s.Standalone != nil && s.Timing != nil &&
		s.Topology == nil && s.Workload == nil &&
		*s.Timing == (TimingSpec{Cycles: s.Timing.Cycles, Seed: s.Timing.Seed}) {
		if s.Standalone.Cycles == 0 {
			s.Standalone.Cycles = s.Timing.Cycles
		}
		if s.Standalone.Seed == 0 {
			s.Standalone.Seed = s.Timing.Seed
		}
		s.Timing = nil
	}
	return s
}

// WithName titles the spec.
func WithName(name string) SpecOption { return func(s *Spec) { s.Name = name } }

// WithTopology sets the torus shape.
func WithTopology(width, height int) SpecOption {
	return func(s *Spec) { s.Topology = &TopologySpec{Width: width, Height: height} }
}

// WithArbiters names the algorithms to compare.
func WithArbiters(names ...string) SpecOption {
	return func(s *Spec) { s.Arbiters = append([]string(nil), names...) }
}

func (s *Spec) workload() *WorkloadSpec {
	if s.Workload == nil {
		s.Workload = &WorkloadSpec{}
	}
	return s.Workload
}

func (s *Spec) timing() *TimingSpec {
	if s.Timing == nil {
		s.Timing = &TimingSpec{}
	}
	return s.Timing
}

// WithPatterns sets the destination-pattern axis.
func WithPatterns(names ...string) SpecOption {
	return func(s *Spec) { s.workload().Patterns = append([]string(nil), names...) }
}

// WithProcesses sets the arrival-process axis.
func WithProcesses(names ...string) SpecOption {
	return func(s *Spec) { s.workload().Processes = append([]string(nil), names...) }
}

// WithModel sets the transaction model.
func WithModel(name string) SpecOption {
	return func(s *Spec) { s.workload().Model = name }
}

// WithRates sets the injection-rate sweep.
func WithRates(rates ...float64) SpecOption {
	return func(s *Spec) { s.workload().Rates = append([]float64(nil), rates...) }
}

// WithMaxOutstanding caps in-flight transactions per processor.
func WithMaxOutstanding(n int) SpecOption {
	return func(s *Spec) { s.workload().MaxOutstanding = n }
}

// WithRecord captures the injection stream to a trace file.
func WithRecord(path string) SpecOption {
	return func(s *Spec) { s.workload().RecordTo = path }
}

// WithReplay replays a recorded trace instead of generating traffic.
func WithReplay(path string) SpecOption {
	return func(s *Spec) { s.workload().ReplayFrom = path }
}

// WithCycles sets the run length (router cycles, or standalone
// iterations when the spec is in standalone mode).
func WithCycles(n int) SpecOption {
	return func(s *Spec) {
		if s.Mode == ModeStandalone && s.Standalone != nil {
			s.Standalone.Cycles = n
			return
		}
		s.timing().Cycles = n
	}
}

// WithSeed sets the simulation seed (mode-aware, like WithCycles).
func WithSeed(seed uint64) SpecOption {
	return func(s *Spec) {
		if s.Mode == ModeStandalone && s.Standalone != nil {
			s.Standalone.Seed = seed
			return
		}
		s.timing().Seed = seed
	}
}

// WithWarmupFraction sets the measurement warmup (NoWarmup disables it).
func WithWarmupFraction(frac float64) SpecOption {
	return func(s *Spec) { s.timing().WarmupFraction = frac }
}

// WithScaledPipeline doubles pipeline depth and clock.
func WithScaledPipeline() SpecOption {
	return func(s *Spec) { s.timing().ScalePipeline = true }
}

// WithTorusShards spatially shards each simulation into n row bands
// (0 keeps the monolithic engine).
func WithTorusShards(n int) SpecOption {
	return func(s *Spec) { s.timing().TorusShards = n }
}

// WithEpochCycles tracks delivered flits per epoch of n cycles.
func WithEpochCycles(n int) SpecOption {
	return func(s *Spec) { s.timing().EpochCycles = n }
}

// WithReplications runs every point n times with derived seeds and
// attaches mean/stddev/confidence-interval statistics to each point.
func WithReplications(n int) SpecOption {
	return func(s *Spec) { s.Replications = n }
}

// WithConfidence sets the replication interval's confidence level.
func WithConfidence(c float64) SpecOption {
	return func(s *Spec) { s.Confidence = c }
}

// WithCheck enables the online invariant oracle for every simulation.
func WithCheck() SpecOption {
	return func(s *Spec) { s.Check = true }
}

// WithMetrics enables the telemetry layer for every timing simulation;
// each ResultPoint carries its obs.Snapshot.
func WithMetrics() SpecOption {
	return func(s *Spec) { s.Metrics = true }
}

// WithStandaloneSweep switches the spec to standalone mode with the given
// axis and values.
func WithStandaloneSweep(axis string, values ...float64) SpecOption {
	return func(s *Spec) {
		s.Mode = ModeStandalone
		if s.Standalone == nil {
			s.Standalone = &StandaloneSpec{}
		}
		s.Standalone.Axis = axis
		s.Standalone.Values = append([]float64(nil), values...)
	}
}

// WithStandalone sets the full standalone section.
func WithStandalone(sa StandaloneSpec) SpecOption {
	return func(s *Spec) {
		s.Mode = ModeStandalone
		copy := sa
		s.Standalone = &copy
	}
}

// reps returns the effective replication count (0 and 1 both mean one).
func (s Spec) reps() int {
	if s.Replications > 1 {
		return s.Replications
	}
	return 1
}

// confidence returns the effective confidence level.
func (s Spec) confidence() float64 {
	if s.Confidence != 0 {
		return s.Confidence
	}
	return DefaultConfidence
}

// repSeed derives the seed of replication rep from a base seed.
// Replication 0 runs the base seed itself, so a single-replication run
// reproduces the unreplicated simulation byte for byte; later
// replications step by the golden-ratio increment, giving distinct,
// deterministic, well-spread seeds.
func repSeed(seed uint64, rep int) uint64 {
	return seed + uint64(rep)*0x9e3779b97f4a7c15
}

// patterns returns the pattern axis with its default.
func (w *WorkloadSpec) patterns() []string {
	if len(w.Patterns) == 0 {
		return []string{"random"}
	}
	return w.Patterns
}

// processes returns the process axis with its default.
func (w *WorkloadSpec) processes() []string {
	if len(w.Processes) == 0 {
		return []string{"bernoulli"}
	}
	return w.Processes
}

func specErr(format string, args ...any) error {
	return fmt.Errorf("experiment: invalid spec: "+format, args...)
}

// Validate checks the spec against the v1 schema without mutating it:
// version and mode, name resolution for every arbiter, pattern, process,
// and model, topology compatibility, and the record/replay contradiction
// rules. A valid spec is guaranteed to expand into runnable simulations
// (runtime I/O errors, such as a missing trace file, can still occur).
func (s Spec) Validate() error {
	if s.Version != SpecVersion {
		return specErr("unsupported version %d (this build reads version %d)", s.Version, SpecVersion)
	}
	if len(s.Arbiters) == 0 {
		return specErr("at least one arbiter is required")
	}
	if s.Replications < 0 {
		return specErr("replications %d must be >= 0", s.Replications)
	}
	if s.Confidence != 0 {
		if s.Confidence <= 0 || s.Confidence >= 1 {
			return specErr("confidence %g must be within (0, 1)", s.Confidence)
		}
		if s.reps() == 1 {
			return specErr("confidence requires replications > 1 (there is no interval over one run)")
		}
	}
	kinds := make([]core.Kind, len(s.Arbiters))
	for i, name := range s.Arbiters {
		k, err := core.ParseKind(name)
		if err != nil {
			return specErr("arbiters[%d]: %v", i, err)
		}
		kinds[i] = k
	}
	switch s.Mode {
	case "", ModeTiming:
		return s.validateTiming()
	case ModeStandalone:
		return s.validateStandalone()
	default:
		return specErr("unknown mode %q (valid: %s, %s)", s.Mode, ModeTiming, ModeStandalone)
	}
}

func (s Spec) validateTiming() error {
	if s.Standalone != nil {
		return specErr("standalone section is set on a timing spec")
	}
	if s.Topology == nil {
		return specErr("timing spec needs a topology")
	}
	if s.Topology.Width < 2 || s.Topology.Height < 2 {
		return specErr("topology %dx%d: both dimensions must be >= 2", s.Topology.Width, s.Topology.Height)
	}
	if s.Timing == nil || s.Timing.Cycles <= 0 {
		return specErr("timing spec needs a positive cycle count")
	}
	if s.Timing.EpochCycles < 0 {
		return specErr("epoch_cycles must be >= 0")
	}
	if s.Timing.TorusShards < 0 {
		return specErr("torus_shards must be >= 0")
	}
	if s.Timing.TorusShards > s.Topology.Height {
		return specErr("torus_shards %d exceeds topology height %d (row-band sharding needs at least one row per shard)",
			s.Timing.TorusShards, s.Topology.Height)
	}
	w := s.Workload
	if w == nil {
		return specErr("timing spec needs a workload")
	}
	if w.MaxOutstanding < 0 {
		return specErr("max_outstanding must be >= 0")
	}
	if w.ReplayFrom != "" {
		// A replay fixes the injection stream, so the generative axes are
		// contradictions, not ignorable extras.
		switch {
		case len(w.Patterns) > 0:
			return specErr("replay_from contradicts patterns (the trace fixes destinations)")
		case len(w.Processes) > 0:
			return specErr("replay_from contradicts processes (the trace fixes arrivals)")
		case len(w.Rates) > 0:
			return specErr("replay_from contradicts rates (the trace fixes the injection stream)")
		case w.Model != "":
			return specErr("replay_from contradicts model (the trace fixes transactions)")
		case w.RecordTo != "":
			return specErr("replay_from contradicts record_to (re-recording a replay is a no-op)")
		}
		return nil
	}
	torus := topology.NewTorus(s.Topology.Width, s.Topology.Height)
	for i, name := range w.patterns() {
		p, err := traffic.ParsePattern(name)
		if err != nil {
			return specErr("patterns[%d]: %v", i, err)
		}
		if err := p.Validate(torus); err != nil {
			return specErr("patterns[%d]: %v", i, err)
		}
	}
	for i, name := range w.processes() {
		if _, err := workload.CanonicalProcess(name); err != nil {
			return specErr("processes[%d]: %v", i, err)
		}
	}
	if _, err := workload.CanonicalModel(w.Model); err != nil {
		return specErr("model: %v", err)
	}
	if len(w.Rates) == 0 {
		return specErr("timing spec needs at least one rate (or a replay_from trace)")
	}
	for i, r := range w.Rates {
		if r <= 0 {
			return specErr("rates[%d]: rate %g must be positive", i, r)
		}
	}
	if w.RecordTo != "" {
		points := len(s.Arbiters) * len(w.patterns()) * len(w.processes()) * len(w.Rates)
		if points != 1 {
			return specErr("record_to needs a single-scenario spec (this one expands to %d runs sharing the file)", points)
		}
		if s.reps() > 1 {
			return specErr("record_to contradicts replications (every replication would rewrite the trace file)")
		}
	}
	return nil
}

func (s Spec) validateStandalone() error {
	if s.Topology != nil || s.Workload != nil || s.Timing != nil {
		return specErr("timing sections are set on a standalone spec")
	}
	if s.Metrics {
		return specErr("metrics requires a timing spec (the standalone model has no routers to observe)")
	}
	sa := s.Standalone
	if sa == nil {
		return specErr("standalone spec needs a standalone section")
	}
	if sa.Cycles <= 0 {
		return specErr("standalone spec needs a positive cycle count")
	}
	if len(sa.Values) == 0 {
		return specErr("standalone spec needs at least one axis value")
	}
	switch sa.Axis {
	case AxisLoad, AxisLoadFraction:
		if sa.Load != 0 {
			return specErr("load is only meaningful with the %s axis", AxisOccupancy)
		}
		if sa.Occupancy < 0 || sa.Occupancy > 1 {
			return specErr("occupancy %g must be within [0, 1]", sa.Occupancy)
		}
		for i, v := range sa.Values {
			if v < 0 {
				return specErr("values[%d]: %s %g must be >= 0", i, sa.Axis, v)
			}
		}
	case AxisOccupancy:
		if sa.Occupancy != 0 {
			return specErr("occupancy is the axis; set values, not a fixed occupancy")
		}
		if sa.Load < 0 {
			return specErr("load %g must be >= 0", sa.Load)
		}
		for i, v := range sa.Values {
			if v < 0 || v > 1 {
				return specErr("values[%d]: occupancy %g must be within [0, 1]", i, v)
			}
		}
	default:
		return specErr("unknown standalone axis %q (valid: %s, %s, %s)",
			sa.Axis, AxisLoad, AxisLoadFraction, AxisOccupancy)
	}
	return nil
}

// EncodeSpec renders one spec as indented JSON with a trailing newline —
// the canonical serialized form the golden tests pin.
func EncodeSpec(s Spec) ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("experiment: encode spec: %w", err)
	}
	return append(data, '\n'), nil
}

// EncodeSpecs renders one spec as an object and several as an array.
func EncodeSpecs(specs []Spec) ([]byte, error) {
	if len(specs) == 1 {
		return EncodeSpec(specs[0])
	}
	data, err := json.MarshalIndent(specs, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("experiment: encode specs: %w", err)
	}
	return append(data, '\n'), nil
}

func strictDecoder(data []byte) *json.Decoder {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec
}

// ParseSpec parses and validates one spec from strict JSON: unknown
// fields, unsupported versions, and trailing garbage are all errors.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := strictDecoder(data)
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("experiment: parse spec: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("experiment: parse spec: trailing data after the spec document")
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// ParseSpecs accepts either a single spec object or an array of specs.
func ParseSpecs(data []byte) ([]Spec, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		var specs []Spec
		dec := strictDecoder(data)
		if err := dec.Decode(&specs); err != nil {
			return nil, fmt.Errorf("experiment: parse specs: %w", err)
		}
		if dec.More() {
			return nil, fmt.Errorf("experiment: parse specs: trailing data after the spec array")
		}
		if len(specs) == 0 {
			return nil, fmt.Errorf("experiment: parse specs: empty spec array")
		}
		for i := range specs {
			if err := specs[i].Validate(); err != nil {
				return nil, fmt.Errorf("specs[%d]: %w", i, err)
			}
		}
		return specs, nil
	}
	s, err := ParseSpec(data)
	if err != nil {
		return nil, err
	}
	return []Spec{s}, nil
}

// ReadSpecFile loads one spec or a spec array from a JSON file.
func ReadSpecFile(path string) ([]Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	specs, err := ParseSpecs(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return specs, nil
}

// WriteSpecFile saves specs (an object for one, an array for several).
func WriteSpecFile(path string, specs ...Spec) error {
	data, err := EncodeSpecs(specs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// planSeries is one result series of an expanded spec, plus the typed
// identity its jobs run with.
type planSeries struct {
	meta ResultSeries // label and identity, no points yet
	jobs int          // job count (points × replications)
}

// planJob is one simulation of an expanded spec, with the coordinates
// the Runner assembles and streams results by.
type planJob struct {
	series int
	point  int
	rep    int
	label  string
	run    func(ctx context.Context) (ResultPoint, error)
}

// plan is a validated, fully-expanded Spec: the flat series-major job
// list the Runner executes — replications of one point are adjacent, so
// the contiguous-prefix partial cut always falls on a whole point. Every
// job's entire input (including its replication seed) is fixed here,
// before anything runs, so results cannot depend on scheduling order.
type plan struct {
	spec           Spec
	reps           int
	confidence     float64
	series         []planSeries
	jobs           []planJob
	saturationLoad float64 // set for standalone saturation-relative axes
}

// expand validates the spec and lays out its job grid.
func (s Spec) expand() (*plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Mode == ModeStandalone {
		return s.expandStandalone()
	}
	return s.expandTiming()
}

// repLabel appends the replication suffix to a job label.
func repLabel(label string, rep, reps int) string {
	if reps <= 1 {
		return label
	}
	return fmt.Sprintf("%s [rep %d/%d]", label, rep+1, reps)
}

func (s Spec) expandTiming() (*plan, error) {
	pl := &plan{spec: s, reps: s.reps(), confidence: s.confidence()}
	w := s.Workload
	base := TimingSetup{
		Width:          s.Topology.Width,
		Height:         s.Topology.Height,
		MaxOutstanding: w.MaxOutstanding,
		Cycles:         s.Timing.Cycles,
		WarmupFraction: s.Timing.WarmupFraction,
		ScalePipeline:  s.Timing.ScalePipeline,
		EpochCycles:    s.Timing.EpochCycles,
		TorusShards:    s.Timing.TorusShards,
		Seed:           s.Timing.Seed,
		Check:          s.Check,
		Metrics:        s.Metrics,
	}
	if w.ReplayFrom != "" {
		for _, name := range s.Arbiters {
			k, _ := core.ParseKind(name)
			si := len(pl.series)
			pl.series = append(pl.series, planSeries{
				meta: ResultSeries{Label: k.String(), Arbiter: k.String()},
				jobs: pl.reps,
			})
			for rep := 0; rep < pl.reps; rep++ {
				setup := base
				setup.Kind = k
				setup.ReplayFrom = w.ReplayFrom
				setup.Seed = repSeed(base.Seed, rep)
				pl.jobs = append(pl.jobs, planJob{
					series: si,
					rep:    rep,
					label: repLabel(fmt.Sprintf("%s / %v replaying %s", s.title(), k, w.ReplayFrom),
						rep, pl.reps),
					run: timingJob(setup),
				})
			}
		}
		return pl, nil
	}
	patterns := w.patterns()
	processes := w.processes()
	multi := len(patterns) > 1 || len(processes) > 1
	for _, name := range s.Arbiters {
		k, _ := core.ParseKind(name)
		for _, patName := range patterns {
			pat, _ := traffic.ParsePattern(patName)
			for _, procName := range processes {
				proc, _ := workload.CanonicalProcess(procName)
				label := k.String()
				if multi {
					label = fmt.Sprintf("%v/%v/%s", k, pat, proc)
				}
				si := len(pl.series)
				pl.series = append(pl.series, planSeries{
					meta: ResultSeries{
						Label:   label,
						Arbiter: k.String(),
						Pattern: pat.String(),
						Process: proc,
						Model:   w.Model,
					},
					jobs: len(w.Rates) * pl.reps,
				})
				for pi, rate := range w.Rates {
					for rep := 0; rep < pl.reps; rep++ {
						setup := base
						setup.Kind = k
						setup.Pattern = pat
						setup.Process = proc
						setup.Model = w.Model
						setup.Rate = rate
						setup.RecordTo = w.RecordTo
						setup.Seed = repSeed(base.Seed, rep)
						pl.jobs = append(pl.jobs, planJob{
							series: si,
							point:  pi,
							rep:    rep,
							label: repLabel(fmt.Sprintf("%s / %s @ %g", s.title(), label, rate),
								rep, pl.reps),
							run: timingJob(setup),
						})
					}
				}
			}
		}
	}
	return pl, nil
}

func (s Spec) title() string {
	if s.Name != "" {
		return s.Name
	}
	if s.Mode == ModeStandalone {
		return "standalone"
	}
	return "sweep"
}

// timingJob wraps one timing setup as a plan job.
func timingJob(setup TimingSetup) func(ctx context.Context) (ResultPoint, error) {
	return func(ctx context.Context) (ResultPoint, error) {
		res, err := runTiming(ctx, setup, nil)
		if err != nil {
			return ResultPoint{}, err
		}
		return timingPoint(res), nil
	}
}

func (s Spec) expandStandalone() (*plan, error) {
	pl := &plan{spec: s, reps: s.reps(), confidence: s.confidence()}
	sa := s.Standalone
	cfg := standalone.DefaultConfig(0)
	cfg.Cycles = sa.Cycles
	if sa.Seed != 0 {
		cfg.Seed = sa.Seed
	}
	needSat := sa.Axis == AxisLoadFraction || (sa.Axis == AxisOccupancy && sa.Load == 0)
	if needSat {
		pl.saturationLoad = standalone.MCMSaturationLoad(cfg)
	}
	check := s.Check
	for _, name := range s.Arbiters {
		k, _ := core.ParseKind(name)
		si := len(pl.series)
		pl.series = append(pl.series, planSeries{
			meta: ResultSeries{Label: k.String(), Arbiter: k.String()},
			jobs: len(sa.Values) * pl.reps,
		})
		for pi, v := range sa.Values {
			for rep := 0; rep < pl.reps; rep++ {
				c := cfg
				c.Seed = repSeed(cfg.Seed, rep)
				switch sa.Axis {
				case AxisLoad:
					c.Load = v
					c.Occupancy = sa.Occupancy
				case AxisLoadFraction:
					c.Load = v * pl.saturationLoad
					c.Occupancy = sa.Occupancy
				case AxisOccupancy:
					c.Load = sa.Load
					if sa.Load == 0 {
						c.Load = pl.saturationLoad
					}
					c.Occupancy = v
				}
				kind, axisValue := k, v
				pl.jobs = append(pl.jobs, planJob{
					series: si,
					point:  pi,
					rep:    rep,
					label:  repLabel(fmt.Sprintf("%s / %v @ %g", s.title(), k, v), rep, pl.reps),
					run: func(ctx context.Context) (ResultPoint, error) {
						if ctx != nil && ctx.Err() != nil {
							return ResultPoint{}, ctx.Err()
						}
						var res standalone.Result
						if check {
							var err error
							if res, err = standalone.RunChecked(kind, c); err != nil {
								return ResultPoint{}, err
							}
						} else {
							res = standalone.Run(kind, c)
						}
						return ResultPoint{
							Axis:            axisValue,
							MatchesPerCycle: res.MatchesPerCycle,
							OfferedPerCycle: res.OfferedPerCycle,
							DroppedPerCycle: res.DroppedPerCycle,
							MeanQueueLen:    res.MeanQueueLen,
						}, nil
					},
				})
			}
		}
	}
	return pl, nil
}

// figureSpecNames lists the canned figure names in cmd/sweep order.
var figureSpecNames = []string{"8", "9", "10", "10s", "11a", "11b", "11c"}

// FigureSpecNames returns the canned figure-spec names.
func FigureSpecNames() []string {
	return append([]string(nil), figureSpecNames...)
}

func kindNames(kinds []core.Kind) []string {
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = k.String()
	}
	return out
}

// FigureSpecs returns the canned Specs reproducing a paper figure — one
// Spec per panel, so "10" yields four. "all" concatenates every figure.
// Options supplies fidelity (Quick, CyclesOverride, MaxRatePoints), the
// seed, and the study-wide toggles (Check, Metrics, Replications,
// TorusShards). Run the Specs through a Runner or Coordinator; a
// Result's Panel (timing) or Curves (standalone) is the figure's data,
// and CollectDataset assembles every figure for Verify.
func FigureSpecs(name string, o Options) ([]Spec, error) {
	specs, err := figureSpecs(name, o)
	if err != nil {
		return nil, err
	}
	for i := range specs {
		o.ApplyStudy(&specs[i])
	}
	return specs, nil
}

func figureSpecs(name string, o Options) ([]Spec, error) {
	timingSpec := func(title string, w, h int, pattern traffic.Pattern, kinds []core.Kind,
		rates []float64, mutate func(*Spec)) Spec {
		sp := Spec{
			Version:  SpecVersion,
			Name:     title,
			Arbiters: kindNames(kinds),
			Topology: &TopologySpec{Width: w, Height: h},
			Workload: &WorkloadSpec{
				Patterns: []string{pattern.String()},
				Rates:    append([]float64(nil), o.rates(rates)...),
			},
			Timing: &TimingSpec{Cycles: o.TimingCycles(), Seed: o.seed()},
		}
		if mutate != nil {
			mutate(&sp)
		}
		return sp
	}
	switch name {
	case "8":
		return []Spec{{
			Version:  SpecVersion,
			Name:     "Figure 8",
			Mode:     ModeStandalone,
			Arbiters: kindNames(Figure8Kinds),
			Standalone: &StandaloneSpec{
				Cycles: o.StandaloneCycles(),
				Seed:   o.seed(),
				Axis:   AxisLoadFraction,
				Values: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
			},
		}}, nil
	case "9":
		return []Spec{{
			Version:  SpecVersion,
			Name:     "Figure 9",
			Mode:     ModeStandalone,
			Arbiters: kindNames(Figure8Kinds),
			Standalone: &StandaloneSpec{
				Cycles: o.StandaloneCycles(),
				Seed:   o.seed(),
				Axis:   AxisOccupancy,
				Values: []float64{0, 0.25, 0.5, 0.75},
			},
		}}, nil
	case "10":
		return []Spec{
			timingSpec("4x4, Random Traffic", 4, 4, traffic.Uniform, Figure10Kinds, Rates4x4, nil),
			timingSpec("8x8, Random Traffic", 8, 8, traffic.Uniform, Figure10Kinds, Rates8x8, nil),
			timingSpec("8x8, Bit Reversal", 8, 8, traffic.BitReversal, Figure10Kinds, Rates8x8, nil),
			timingSpec("8x8, Perfect Shuffle", 8, 8, traffic.PerfectShuffle, Figure10Kinds, Rates8x8, nil),
		}, nil
	case "10s":
		// The saturation companion: Figure 10's 8x8 random sweep with the
		// outstanding-miss limit raised to 64. At the 21364's 16 misses the
		// closed loop settles instead of collapsing; the extra in-flight
		// pressure shows the paper's post-saturation collapse of the base
		// algorithms (see EXPERIMENTS.md).
		return []Spec{timingSpec(
			"8x8, Random Traffic, 64 outstanding (saturation companion)",
			8, 8, traffic.Uniform, Figure10Kinds, Rates8x8,
			func(sp *Spec) { sp.Workload.MaxOutstanding = 64 },
		)}, nil
	case "11a":
		return []Spec{timingSpec(
			"2x Pipeline, 8x8, Random Traffic", 8, 8, traffic.Uniform, Figure11Kinds, Rates8x8,
			func(sp *Spec) {
				sp.Timing.ScalePipeline = true
				sp.Timing.Cycles = o.TimingCycles() * 2
			},
		)}, nil
	case "11b":
		return []Spec{timingSpec(
			"64 requests, 8x8, Random Traffic", 8, 8, traffic.Uniform, Figure11Kinds, Rates8x8,
			func(sp *Spec) { sp.Workload.MaxOutstanding = 64 },
		)}, nil
	case "11c":
		return []Spec{timingSpec(
			"12x12, Random Traffic", 12, 12, traffic.Uniform, Figure11Kinds, Rates12x12, nil,
		)}, nil
	case "all":
		var all []Spec
		for _, n := range figureSpecNames {
			specs, err := figureSpecs(n, o)
			if err != nil {
				return nil, err
			}
			all = append(all, specs...)
		}
		return all, nil
	}
	return nil, fmt.Errorf("experiment: unknown figure %q (valid: %s, all)",
		name, strings.Join(figureSpecNames, ", "))
}
