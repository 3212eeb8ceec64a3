package experiment

// result.go is the stable machine-readable output schema of the
// Scenario/Runner API. A Result embeds the Spec that produced it, one
// series per arbiter (× pattern × process) with named latency
// percentiles (latency_p50/p95/p99_ns), and round-trips through both an
// indented JSON document (WriteFile) and a line-oriented JSONL stream
// (EncodeJSONL) suitable for appending and for artifact pipelines.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"

	"alpha21364/internal/obs"
	"alpha21364/internal/stats"
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
	// ElapsedNS is the wall-clock duration of the run; it is the one
	// field excluded from determinism guarantees.
	ElapsedNS int64 `json:"elapsed_ns,omitempty"`
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

// statsPoint converts the point to the stats.Point BNF shape.
func (p ResultPoint) statsPoint() stats.Point {
	return stats.Point{
		OfferedRate:  p.Rate,
		Throughput:   p.Throughput,
		AvgLatencyNS: p.AvgLatencyNS,
		Packets:      p.Packets,
	}
}

// Panel converts a timing Result to the chart shape that Verify, the
// figure tables, and the ASCII plotter consume. Every series is
// included, complete or not (Table renders missing cells as "-").
func (r *Result) Panel() Panel {
	p := Panel{Title: r.Spec.Name}
	if r.Spec.Workload != nil {
		p.Rates = append(p.Rates, r.Spec.Workload.Rates...)
	}
	for _, s := range r.Series {
		series := stats.Series{Label: s.Label}
		for _, pt := range s.Points {
			series.Points = append(series.Points, pt.statsPoint())
		}
		p.Series = append(p.Series, series)
	}
	return p
}

// Curves converts a standalone Result to the per-algorithm curve shape
// of Figures 8 and 9.
func (r *Result) Curves() []StandaloneCurve {
	curves := make([]StandaloneCurve, len(r.Series))
	for i, s := range r.Series {
		c := StandaloneCurve{Label: s.Label}
		for _, pt := range s.Points {
			c.Values = append(c.Values, pt.MatchesPerCycle)
		}
		curves[i] = c
	}
	return curves
}

// Table renders the result for terminal/CSV output, choosing the layout
// by spec shape: standalone sweeps and single-axis timing sweeps render
// as panels (axis rows × per-algorithm columns), multi-pattern or
// multi-process matrices as one row per scenario point.
func (r *Result) Table() Table {
	if r.Spec.Mode == ModeStandalone {
		return r.standaloneTable()
	}
	w := r.Spec.Workload
	// Replay results have no rate axis (the trace fixes the injection
	// stream), so the panel layout — whose rows are rates — would render
	// empty; matrices need a row per scenario. Both use the scenario table.
	if w != nil && (w.ReplayFrom != "" || len(w.patterns()) > 1 || len(w.processes()) > 1) {
		return r.ScenarioTable()
	}
	return r.Panel().Table()
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

// jsonlHeader is the first line of a JSONL-encoded Result.
type jsonlHeader struct {
	Type           string  `json:"type"` // "result"
	Version        int     `json:"version"`
	Spec           Spec    `json:"spec"`
	Partial        bool    `json:"partial,omitempty"`
	SaturationLoad float64 `json:"saturation_load,omitempty"`
	ElapsedNS      int64   `json:"elapsed_ns,omitempty"`
}

// jsonlSeries starts a series; its points follow, one line each.
type jsonlSeries struct {
	Type    string `json:"type"` // "series"
	Label   string `json:"label"`
	Arbiter string `json:"arbiter"`
	Pattern string `json:"pattern,omitempty"`
	Process string `json:"process,omitempty"`
	Model   string `json:"model,omitempty"`
}

// jsonlPoint is one measurement line.
type jsonlPoint struct {
	Type   string      `json:"type"` // "point"
	Series string      `json:"series"`
	Point  ResultPoint `json:"point"`
}

// EncodeJSONL streams the result as line-delimited JSON: a header line
// carrying the spec, then a series line followed by that series' point
// lines, in order. The format round-trips through DecodeResultJSONL.
func (r *Result) EncodeJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(jsonlHeader{
		Type:           "result",
		Version:        r.Version,
		Spec:           r.Spec,
		Partial:        r.Partial,
		SaturationLoad: r.SaturationLoad,
		ElapsedNS:      r.ElapsedNS,
	}); err != nil {
		return fmt.Errorf("experiment: encode result: %w", err)
	}
	for _, s := range r.Series {
		if err := enc.Encode(jsonlSeries{
			Type: "series", Label: s.Label, Arbiter: s.Arbiter,
			Pattern: s.Pattern, Process: s.Process, Model: s.Model,
		}); err != nil {
			return fmt.Errorf("experiment: encode result: %w", err)
		}
		for _, p := range s.Points {
			if err := enc.Encode(jsonlPoint{Type: "point", Series: s.Label, Point: p}); err != nil {
				return fmt.Errorf("experiment: encode result: %w", err)
			}
		}
	}
	return nil
}

// resultDecoder assembles a Result from its JSONL records, one line at
// a time, in DecodeResultJSONL.
type resultDecoder struct{ res *Result }

// decodeLine decodes record number line (1-based, blank lines counted)
// into the growing Result.
func (d *resultDecoder) decodeLine(raw []byte, line int) error {
	var probe struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return fmt.Errorf("experiment: decode result line %d: %w", line, err)
	}
	switch probe.Type {
	case "result":
		if d.res != nil {
			return fmt.Errorf("experiment: decode result line %d: duplicate header", line)
		}
		var h jsonlHeader
		if err := decodeStrict(raw, &h); err != nil {
			return fmt.Errorf("experiment: decode result line %d: %w", line, err)
		}
		if h.Version != ResultVersion {
			return fmt.Errorf("experiment: decode result line %d: unsupported version %d (this build reads version %d)",
				line, h.Version, ResultVersion)
		}
		d.res = &Result{
			Version:        h.Version,
			Spec:           h.Spec,
			Partial:        h.Partial,
			SaturationLoad: h.SaturationLoad,
			ElapsedNS:      h.ElapsedNS,
		}
	case "series":
		if d.res == nil {
			return fmt.Errorf("experiment: decode result line %d: series before header", line)
		}
		var s jsonlSeries
		if err := decodeStrict(raw, &s); err != nil {
			return fmt.Errorf("experiment: decode result line %d: %w", line, err)
		}
		d.res.Series = append(d.res.Series, ResultSeries{
			Label: s.Label, Arbiter: s.Arbiter,
			Pattern: s.Pattern, Process: s.Process, Model: s.Model,
		})
	case "point":
		if d.res == nil || len(d.res.Series) == 0 {
			return fmt.Errorf("experiment: decode result line %d: point before its series", line)
		}
		var p jsonlPoint
		if err := decodeStrict(raw, &p); err != nil {
			return fmt.Errorf("experiment: decode result line %d: %w", line, err)
		}
		last := &d.res.Series[len(d.res.Series)-1]
		if p.Series != last.Label {
			return fmt.Errorf("experiment: decode result line %d: point for series %q under series %q",
				line, p.Series, last.Label)
		}
		last.Points = append(last.Points, p.Point)
	default:
		return fmt.Errorf("experiment: decode result line %d: unknown record type %q", line, probe.Type)
	}
	return nil
}

// DecodeResultJSONL reconstructs a Result from its JSONL stream,
// rejecting unknown record types, unknown fields, missing headers,
// and unsupported versions.
func DecodeResultJSONL(r io.Reader) (*Result, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var d resultDecoder
	for line := 1; sc.Scan(); line++ {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if err := d.decodeLine(raw, line); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("experiment: decode result: %w", err)
	}
	if d.res == nil {
		return nil, fmt.Errorf("experiment: decode result: empty stream")
	}
	return d.res, nil
}

// WriteFile saves the result as one indented JSON document.
func (r *Result) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("experiment: encode result: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadResultFile loads a Result document written by WriteFile, with the
// same strictness as the JSONL decoder.
func ReadResultFile(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res Result
	if err := decodeStrict(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if res.Version != ResultVersion {
		return nil, fmt.Errorf("%s: unsupported result version %d (this build reads version %d)",
			path, res.Version, ResultVersion)
	}
	return &res, nil
}
