package experiment

// shard.go is the pure planning half of the sweep service: it decomposes
// a validated Spec's (series × point) grid into shard-Specs — each an
// ordinary, independently runnable Spec covering one series and a
// contiguous slice of its points — with a deterministic shard→cell
// mapping, and reassembles streamed shard Results into exactly the byte
// stream the monolithic Runner produces (fingerprint-enforced in
// shard_test.go against the PR-4 goldens).
//
// Why this is sound: every job's input, including its per-replication
// seed, is fixed at expansion time from the spec's own fields — a point
// at rate r with seed s simulates identically whether its sibling points
// share the process or not (serial==parallel byte-identity, PR 1), and
// replication seeds derive from the base seed alone (PR 5). A shard-Spec
// therefore reproduces each of its points byte-for-byte, and the merger
// only has to put them back in grid order. Replications stay inside
// their point's shard, so per-point Replication statistics are computed
// from the same inputs either way.
//
// Shards never span series: a single series × rate-slice subset is
// always expressible as a strict v1 Spec, while an arbitrary cell set
// is not.

import (
	"fmt"
)

// ShardCell addresses one cell of a spec's grid: a series index and a
// point index within that series, both in expansion order. One cell is
// one measured ResultPoint (all of its replications included).
type ShardCell struct {
	Series int `json:"series"`
	Point  int `json:"point"`
}

// Shard is one independently runnable slice of a sweep: a self-contained
// Spec plus the original-grid coordinates its result points map back to,
// in the shard Spec's own expansion order.
type Shard struct {
	Spec  Spec
	Cells []ShardCell
}

// gridAxes is the shape of a validated spec's grid and the per-axis
// names needed to subset it.
type gridAxes struct {
	arbiters   []string
	patterns   []string // timing, non-replay
	processes  []string // timing, non-replay
	points     int      // points per series
	replay     bool
	standalone bool
}

// axes derives the grid shape. The spec must be valid.
func (s Spec) axes() gridAxes {
	a := gridAxes{arbiters: s.Arbiters}
	switch {
	case s.Mode == ModeStandalone:
		a.standalone = true
		a.points = len(s.Standalone.Values)
	case s.Workload.ReplayFrom != "":
		a.replay = true
		a.points = 1
	default:
		a.patterns = s.Workload.patterns()
		a.processes = s.Workload.processes()
		a.points = len(s.Workload.Rates)
	}
	return a
}

// seriesCount returns the number of series the grid expands to.
func (a gridAxes) seriesCount() int {
	n := len(a.arbiters)
	if !a.standalone && !a.replay {
		n *= len(a.patterns) * len(a.processes)
	}
	return n
}

// seriesNames inverts a series index into its axis names, following
// expandTiming's nesting order: arbiter outermost, then pattern, then
// process.
func (a gridAxes) seriesNames(si int) (arbiter, pattern, process string) {
	if a.standalone || a.replay {
		return a.arbiters[si], "", ""
	}
	nProc := len(a.processes)
	nPat := len(a.patterns)
	return a.arbiters[si/(nPat*nProc)], a.patterns[(si/nProc)%nPat], a.processes[si%nProc]
}

// allCells enumerates the whole grid in series-major order.
func (a gridAxes) allCells() []ShardCell {
	cells := make([]ShardCell, 0, a.seriesCount()*a.points)
	for si := 0; si < a.seriesCount(); si++ {
		for pi := 0; pi < a.points; pi++ {
			cells = append(cells, ShardCell{Series: si, Point: pi})
		}
	}
	return cells
}

// subsetSpec builds the shard-Spec covering one series and the given
// point indices of the parent spec. The result is a self-contained,
// valid Spec whose expansion enumerates exactly those cells in order.
func subsetSpec(parent Spec, a gridAxes, si int, points []int) Spec {
	sub := parent // value copy; pointer sections are re-pointed below
	arb, pat, proc := a.seriesNames(si)
	sub.Arbiters = []string{arb}
	if parent.Topology != nil {
		tp := *parent.Topology
		sub.Topology = &tp
	}
	if parent.Timing != nil {
		tm := *parent.Timing
		sub.Timing = &tm
	}
	switch {
	case a.standalone:
		sa := *parent.Standalone
		sa.Values = make([]float64, len(points))
		for i, pi := range points {
			sa.Values[i] = parent.Standalone.Values[pi]
		}
		sub.Standalone = &sa
	case a.replay:
		w := *parent.Workload
		sub.Workload = &w
	default:
		w := *parent.Workload
		w.Patterns = []string{pat}
		w.Processes = []string{proc}
		w.Rates = make([]float64, len(points))
		for i, pi := range points {
			w.Rates[i] = parent.Workload.Rates[pi]
		}
		sub.Workload = &w
	}
	return sub
}

// planShardsOver groups the given cells (series-major order) into at
// most want shards and builds each shard's Spec. want <= 0 means one
// shard per cell — the finest granularity, giving maximum scheduling
// freedom and per-point cache persistence. Chunks never cross a series
// boundary, and the mapping is a pure function of (cells, want), so the
// same missing set always re-plans identically.
func planShardsOver(parent Spec, a gridAxes, cells []ShardCell, want int) []Shard {
	if len(cells) == 0 {
		return nil
	}
	target := 1
	if want > 0 {
		target = (len(cells) + want - 1) / want // chunk size for ~want shards
	}
	var shards []Shard
	var run []ShardCell
	flush := func() {
		if len(run) == 0 {
			return
		}
		points := make([]int, len(run))
		for i, c := range run {
			points[i] = c.Point
		}
		shards = append(shards, Shard{
			Spec:  subsetSpec(parent, a, run[0].Series, points),
			Cells: run,
		})
		run = nil
	}
	for _, c := range cells {
		if len(run) > 0 && (run[0].Series != c.Series || len(run) >= target) {
			flush()
		}
		run = append(run, c)
	}
	flush()
	return shards
}

// PlanShards decomposes the spec's full grid into at most shards
// shard-Specs (0 means one per point). Every cell of the grid is covered
// exactly once; the mapping is deterministic.
func PlanShards(spec Spec, shards int) ([]Shard, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	a := spec.axes()
	return planShardsOver(spec, a, a.allCells(), shards), nil
}

// flattenPoints lists a result's points in series-major order — the same
// order a shard's Cells are enumerated in.
func flattenPoints(res *Result) []ResultPoint {
	var pts []ResultPoint
	for _, s := range res.Series {
		pts = append(pts, s.Points...)
	}
	return pts
}

// mergeCells assembles the monolithic Result from per-cell points. The
// plan supplies the series metadata, saturation load, and grid shape;
// points holds whichever cells are known (cached or freshly simulated).
// Each series keeps the contiguous prefix of its known points — the same
// partial-result shape the Runner produces — and the Result is marked
// Partial when any cell is missing.
func (pl *plan) mergeCells(points map[ShardCell]ResultPoint) *Result {
	res := &Result{
		Version:        ResultVersion,
		Spec:           pl.spec,
		SaturationLoad: pl.saturationLoad,
	}
	res.Series = make([]ResultSeries, len(pl.series))
	for si, s := range pl.series {
		res.Series[si] = s.meta
		nPoints := s.jobs / pl.reps
		for pi := 0; pi < nPoints; pi++ {
			pt, ok := points[ShardCell{Series: si, Point: pi}]
			if !ok {
				res.Partial = true
				break
			}
			res.Series[si].Points = append(res.Series[si].Points, pt)
		}
	}
	return res
}

// MergeShardResults reassembles shard Results into the Result the
// monolithic Runner would have produced for spec (ElapsedNS excepted —
// wall time is the one field outside the determinism contract, and the
// caller stamps it). results[i] must be the outcome of running
// shards[i].Spec; a nil result (shard never ran) or a partial one simply
// leaves its cells missing, yielding a Partial merged Result.
func MergeShardResults(spec Spec, shards []Shard, results []*Result) (*Result, error) {
	pl, err := spec.expand()
	if err != nil {
		return nil, err
	}
	if len(results) != len(shards) {
		return nil, fmt.Errorf("experiment: merge: %d results for %d shards", len(results), len(shards))
	}
	points := make(map[ShardCell]ResultPoint)
	for i, sh := range shards {
		if results[i] == nil {
			continue
		}
		pts := flattenPoints(results[i])
		if len(pts) > len(sh.Cells) {
			return nil, fmt.Errorf("experiment: merge: shard %d returned %d points for %d cells",
				i, len(pts), len(sh.Cells))
		}
		for j, pt := range pts {
			points[sh.Cells[j]] = pt
		}
	}
	return pl.mergeCells(points), nil
}
