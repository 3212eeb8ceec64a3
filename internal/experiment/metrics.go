package experiment

// metrics.go surfaces the telemetry layer at the experiment level: the
// canonical StripVolatile normalization (cmd/sweep -stable, the CI
// cached-matrix smoke) and the metrics sidecar document cmd/sweep
// -metrics writes next to each run's results.

import (
	"encoding/json"
	"fmt"
	"os"

	"alpha21364/internal/obs"
)

// StripVolatile zeroes the fields excluded from the determinism
// guarantees — currently only ElapsedNS, the run's wall-clock duration —
// so two runs of the same Spec compare byte-identical. It is the
// canonical normalization for warm-cache rerun comparisons; use it
// instead of stripping JSON by hand.
func StripVolatile(r *Result) {
	if r != nil {
		r.ElapsedNS = 0
	}
}

// MetricsSidecarVersion is the sidecar schema version.
const MetricsSidecarVersion = 1

// MetricsSidecar is the standalone telemetry document `sweep -metrics`
// writes alongside a run's results: every point's obs.Snapshot keyed by
// its series and axis position, without duplicating the measurements.
type MetricsSidecar struct {
	Version int `json:"version"`
	// Name is the producing spec's name.
	Name   string         `json:"name,omitempty"`
	Points []MetricsPoint `json:"points"`
}

// MetricsPoint locates one snapshot in its Result.
type MetricsPoint struct {
	// Series is the point's series label.
	Series string `json:"series"`
	// Rate is the timing-mode load axis; Axis the standalone axis.
	Rate    float64       `json:"rate,omitempty"`
	Axis    float64       `json:"axis,omitempty"`
	Metrics *obs.Snapshot `json:"metrics"`
}

// MetricsSidecarOf collects the result's snapshots into a sidecar
// document, or nil when no point carries telemetry.
func MetricsSidecarOf(r *Result) *MetricsSidecar {
	var sc *MetricsSidecar
	for _, s := range r.Series {
		for _, p := range s.Points {
			if p.Metrics == nil {
				continue
			}
			if sc == nil {
				sc = &MetricsSidecar{Version: MetricsSidecarVersion, Name: r.Spec.Name}
			}
			sc.Points = append(sc.Points, MetricsPoint{
				Series: s.Label, Rate: p.Rate, Axis: p.Axis, Metrics: p.Metrics,
			})
		}
	}
	return sc
}

// WriteFile saves the sidecar as one indented JSON document.
func (sc *MetricsSidecar) WriteFile(path string) error {
	data, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return fmt.Errorf("experiment: encode metrics sidecar: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadMetricsSidecarFile loads a sidecar written by WriteFile, with the
// same strictness as the result readers.
func ReadMetricsSidecarFile(path string) (*MetricsSidecar, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sc MetricsSidecar
	if err := decodeStrict(data, &sc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if sc.Version != MetricsSidecarVersion {
		return nil, fmt.Errorf("%s: unsupported metrics sidecar version %d (this build reads version %d)",
			path, sc.Version, MetricsSidecarVersion)
	}
	return &sc, nil
}
