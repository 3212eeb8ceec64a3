package experiment

// metrics.go holds the canonical StripVolatile normalization (cmd/sweep
// -stable, the CI cached-matrix smoke). A metrics-enabled run's
// snapshots ride in its ResultPoints, so its Result JSONL holds every
// one, keyed by series and point.

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
