package experiment

// result.go is the stable machine-readable output schema of the
// Scenario/Runner API. A Result embeds the Spec that produced it, one
// series per arbiter (× pattern × process) with named latency
// percentiles (latency_p50/p95/p99_ns). Its one serialized form is a
// single line of JSON (EncodeJSONL, DecodeResultJSONL), so a stream of
// Results is one line per Result. Every byte of it is deterministic.

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"alpha21364/internal/obs"
)

// ResultVersion is the Result schema version this package reads and writes.
const ResultVersion = 1

// Result is the machine-readable outcome of running one Spec.
type Result struct {
	// Version must be ResultVersion.
	Version int `json:"version"`
	// Spec is the exact specification that produced the result.
	Spec Spec `json:"spec"`
	// Partial is true when the run was cancelled or failed before every
	// point completed; each series then holds the contiguous prefix of
	// its points that finished.
	Partial bool `json:"partial,omitempty"`
	// SaturationLoad is the MCM saturation load in packets/port/cycle,
	// set when a standalone spec's axis is saturation-relative.
	SaturationLoad float64 `json:"saturation_load,omitempty"`
	// Series holds one entry per arbiter × pattern × process combination,
	// in spec order.
	Series []ResultSeries `json:"series"`
}

// ResultSeries is one curve: a fixed scenario identity swept over the
// spec's axis (rates, or the standalone axis).
type ResultSeries struct {
	Label   string        `json:"label"`
	Arbiter string        `json:"arbiter"`
	Pattern string        `json:"pattern,omitempty"`
	Process string        `json:"process,omitempty"`
	Model   string        `json:"model,omitempty"`
	Points  []ResultPoint `json:"points"`
}

// ResultPoint is one measurement. Timing runs fill the BNF fields;
// standalone runs fill the matching-model fields.
type ResultPoint struct {
	// Rate is the offered injection rate (timing mode).
	Rate float64 `json:"rate,omitempty"`
	// Throughput is delivered flits per router per nanosecond.
	Throughput float64 `json:"throughput,omitempty"`
	// AvgLatencyNS is the mean packet latency.
	AvgLatencyNS float64 `json:"avg_latency_ns,omitempty"`
	// LatencyP50NS, LatencyP95NS, and LatencyP99NS are the latency
	// quantiles, exact to the tick below 5.46 µs (above that they are
	// histogram-derived upper bounds).
	LatencyP50NS float64 `json:"latency_p50_ns,omitempty"`
	LatencyP95NS float64 `json:"latency_p95_ns,omitempty"`
	LatencyP99NS float64 `json:"latency_p99_ns,omitempty"`
	// Packets is the number of measured deliveries.
	Packets int64 `json:"packets,omitempty"`
	// Completed counts finished transactions.
	Completed int64 `json:"completed,omitempty"`
	// DrainEntries and Collisions are arbitration diagnostics.
	DrainEntries int64 `json:"drain_entries,omitempty"`
	Collisions   int64 `json:"collisions,omitempty"`
	// MeanHops is the average router-to-router hop count.
	MeanHops float64 `json:"mean_hops,omitempty"`
	// EpochFlits and ThroughputCoV are set when the spec tracks epochs.
	EpochFlits    []int64 `json:"epoch_flits,omitempty"`
	ThroughputCoV float64 `json:"throughput_cov,omitempty"`

	// Replication carries the multi-seed statistics of a replicated run
	// (Spec.Replications > 1): the headline fields above are replication
	// 0 — the spec's own seed — and Replication summarizes all seeds.
	Replication *ReplicationStats `json:"replication,omitempty"`

	// Axis is the standalone axis value (load, load fraction, or
	// occupancy, per the spec).
	Axis float64 `json:"axis,omitempty"`
	// MatchesPerCycle is the standalone matching rate.
	MatchesPerCycle float64 `json:"matches_per_cycle,omitempty"`
	OfferedPerCycle float64 `json:"offered_per_cycle,omitempty"`
	DroppedPerCycle float64 `json:"dropped_per_cycle,omitempty"`
	MeanQueueLen    float64 `json:"mean_queue_len,omitempty"`

	// Metrics is the run's telemetry snapshot (Spec.Metrics); nil when
	// telemetry is disabled.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// PeakThroughput returns the series' highest delivered throughput: the
// saturation knee the Rotary Rule is designed to hold beyond.
func (s ResultSeries) PeakThroughput() float64 {
	best := 0.0
	for _, p := range s.Points {
		if p.Throughput > best {
			best = p.Throughput
		}
	}
	return best
}

// FinalThroughput returns the delivered throughput at the highest swept
// load, showing whether the network collapsed beyond saturation.
func (s ResultSeries) FinalThroughput() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].Throughput
}

// ThroughputAtLatency interpolates the delivered throughput at a target
// average latency, the comparison the paper quotes ("at about an average
// packet latency of X ns, A provides Y% higher throughput than B"). It
// walks the curve in sweep order, linearly interpolating between each
// pair of points that straddles the target, and returns the highest
// throughput the curve delivers at or below that latency; ok is false
// if no point is at or below it.
func (s ResultSeries) ThroughputAtLatency(latencyNS float64) (float64, bool) {
	best := 0.0
	found := false
	for i, p := range s.Points {
		if p.AvgLatencyNS <= latencyNS {
			// Curve is still below the target latency: it delivers at least
			// this throughput at the target.
			if p.Throughput > best {
				best, found = p.Throughput, true
			}
			continue
		}
		if i > 0 {
			prev := s.Points[i-1]
			if prev.AvgLatencyNS <= latencyNS && p.AvgLatencyNS > prev.AvgLatencyNS {
				frac := (latencyNS - prev.AvgLatencyNS) / (p.AvgLatencyNS - prev.AvgLatencyNS)
				tp := prev.Throughput + frac*(p.Throughput-prev.Throughput)
				if tp > best {
					best, found = tp, true
				}
			}
		}
	}
	return best, found
}

// Table renders the result for terminal/CSV output, choosing the layout
// by spec shape: standalone sweeps and single-axis timing sweeps render
// one row per axis value with per-series columns, multi-pattern or
// multi-process matrices one row per scenario point.
func (r *Result) Table() Table {
	if r.Spec.Mode == ModeStandalone {
		return r.standaloneTable()
	}
	w := r.Spec.Workload
	// Replay results have no rate axis (the trace fixes the injection
	// stream), so the rate layout would render empty; matrices need a row
	// per scenario. Both use the scenario table.
	if w != nil && (w.ReplayFrom != "" || len(w.patterns()) > 1 || len(w.processes()) > 1) {
		return r.ScenarioTable()
	}
	return r.rateTable()
}

// rateTable renders a load sweep in the axes of the paper's BNF charts:
// one row per Spec rate, with each series' throughput and latency
// columns. A partial series renders its missing rows as "-".
func (r *Result) rateTable() Table {
	t := Table{Title: r.Spec.Name, Columns: []string{"rate(txn/node/cyc)"}}
	for _, s := range r.Series {
		t.Columns = append(t.Columns, s.Label+" tput", s.Label+" lat(ns)")
	}
	var rates []float64
	if r.Spec.Workload != nil {
		rates = r.Spec.Workload.Rates
	}
	for i, rate := range rates {
		row := []string{fmt.Sprintf("%.4f", rate)}
		for _, s := range r.Series {
			if i < len(s.Points) {
				row = append(row,
					fmt.Sprintf("%.4f", s.Points[i].Throughput),
					fmt.Sprintf("%.1f", s.Points[i].AvgLatencyNS))
			} else {
				row = append(row, "-", "-")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func (r *Result) standaloneTable() Table {
	title := r.Spec.Name
	if r.SaturationLoad > 0 {
		title = fmt.Sprintf("%s (MCM saturation load = %.2f pkts/port/cycle)", title, r.SaturationLoad)
	}
	t := Table{Title: title}
	axis := AxisLoad
	if r.Spec.Standalone != nil {
		axis = r.Spec.Standalone.Axis
	}
	t.Columns = append(t.Columns, axis)
	for _, s := range r.Series {
		t.Columns = append(t.Columns, s.Label)
	}
	values := []float64(nil)
	if r.Spec.Standalone != nil {
		values = r.Spec.Standalone.Values
	}
	for i, v := range values {
		row := []string{strconv.FormatFloat(v, 'g', -1, 64)}
		for _, s := range r.Series {
			if i < len(s.Points) {
				row = append(row, fmt.Sprintf("%.2f", s.Points[i].MatchesPerCycle))
			} else {
				row = append(row, "-")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// ScenarioTable renders one row per scenario point — the matrix layout,
// whatever the spec's shape.
func (r *Result) ScenarioTable() Table {
	t := Table{
		Title: r.Spec.Name,
		Columns: []string{
			"algorithm", "pattern", "process", "rate",
			"tput(flits/router/ns)", "latency(ns)", "p99(ns)", "packets",
		},
	}
	for _, s := range r.Series {
		for _, p := range s.Points {
			t.Rows = append(t.Rows, []string{
				s.Arbiter,
				s.Pattern,
				s.Process,
				fmt.Sprintf("%g", p.Rate),
				fmt.Sprintf("%.4f", p.Throughput),
				fmt.Sprintf("%.1f", p.AvgLatencyNS),
				fmt.Sprintf("%.1f", p.LatencyP99NS),
				fmt.Sprintf("%d", p.Packets),
			})
		}
	}
	return t
}

// EncodeJSONL writes the result as one line of JSON, the Result
// document followed by a newline, so a stream of Results holds one line
// per Result. The line round-trips through DecodeResultJSONL.
func (r *Result) EncodeJSONL(w io.Writer) error {
	if err := json.NewEncoder(w).Encode(r); err != nil {
		return fmt.Errorf("experiment: encode result: %w", err)
	}
	return nil
}

// DecodeResultJSONL reads one Result document, as EncodeJSONL writes it,
// from the whole of r: unknown fields, a second document, trailing data
// and unsupported versions are errors.
func DecodeResultJSONL(r io.Reader) (*Result, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("experiment: decode result: %w", err)
	}
	var res Result
	if err := decodeStrict(data, &res); err != nil {
		return nil, fmt.Errorf("experiment: decode result: %w", err)
	}
	if res.Version != ResultVersion {
		return nil, fmt.Errorf("experiment: decode result: unsupported version %d (this build reads version %d)",
			res.Version, ResultVersion)
	}
	return &res, nil
}
