package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"

	"alpha21364/internal/core"
	"alpha21364/internal/experiment"
)

// point is one simulation of a workload's job. jobPoints lists them in
// the Runner's job order: arbiter-major, then rate (or load).
type point struct {
	kind  core.Kind
	value float64 // injection rate (timing) or load (standalone)
}

func isStandalone(spec experiment.Spec) bool { return spec.Mode == experiment.ModeStandalone }

func jobPoints(spec experiment.Spec) ([]point, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	var values []float64
	if isStandalone(spec) {
		values = spec.Standalone.Values
	} else {
		values = spec.Workload.Rates
	}
	var pts []point
	for _, name := range spec.Arbiters {
		k, err := core.ParseKind(name)
		if err != nil {
			return nil, err
		}
		for _, v := range values {
			pts = append(pts, point{kind: k, value: v})
		}
	}
	return pts, nil
}

// pointIndex locates a finished Runner point in job order from its
// series label (the arbiter) and its rate or load.
func pointIndex(pts []point, series string, p *experiment.ResultPoint, standalone bool) int {
	v := p.Rate
	if standalone {
		v = p.Axis
	}
	for i, q := range pts {
		if q.kind.String() == series && q.value == v {
			return i
		}
	}
	return -1
}

// digest renders the simulated-time statistics of one point: for the
// torus, BNF throughput, mean and p50/p99 latency, delivered packets,
// completed transactions and the router's drain and collision counters;
// for the standalone model, the matching, offered, dropped and queue
// rates. They are deterministic for a seed, so digests compare exactly.
func digest(p experiment.ResultPoint, standalone bool) string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	if standalone {
		return fmt.Sprintf("matches_per_cycle=%s offered_per_cycle=%s dropped_per_cycle=%s mean_queue_len=%s",
			g(p.MatchesPerCycle), g(p.OfferedPerCycle), g(p.DroppedPerCycle), g(p.MeanQueueLen))
	}
	return fmt.Sprintf("throughput=%s avg_latency_ns=%s latency_p50_ns=%s latency_p99_ns=%s packets=%d completed=%d drain_entries=%d collisions=%d",
		g(p.Throughput), g(p.AvgLatencyNS), g(p.LatencyP50NS), g(p.LatencyP99NS),
		p.Packets, p.Completed, p.DrainEntries, p.Collisions)
}

// expectedSeed is the seed whose statistics expected.json pins, at each
// workload's default run length.
const expectedSeed = 1

//go:embed expected.json
var expectedJSON []byte

// expectedDigests returns the pinned digests for a workload in job order,
// or nil when none apply to this seed and run length.
func expectedDigests(w benchWorkload, seed uint64, cycles int) ([]string, error) {
	if seed != expectedSeed || cycles != w.cycles {
		return nil, nil
	}
	var all map[string][]string
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return all[w.name], nil
}
