package core

import "alpha21364/internal/obs"

type instrumentedArbiter struct {
	inner Arbiter
	m     *obs.ArbiterMetrics
}

// InstrumentArbiter wraps a matrix Arbiter so every Arbitrate call
// counts the valid nominations offered (Requests), the matching found
// (Grants), and the unmatched remainder (Conflicts) into m. It is the
// telemetry layer's (internal/obs) counter for an arbiter no router
// holds, such as the standalone model's; a router counts its own
// arbitration in place. The wrapper delegates unchanged — same grants,
// same internal fairness-state evolution — and only adds counter
// writes, so wrapping is observation-only by construction.
func InstrumentArbiter(a Arbiter, m *obs.ArbiterMetrics) Arbiter {
	return instrumentedArbiter{inner: a, m: m}
}

func (ia instrumentedArbiter) Name() string { return ia.inner.Name() }

func (ia instrumentedArbiter) Arbitrate(mx *Matrix) []Grant {
	gs := ia.inner.Arbitrate(mx)
	// ValidCount sums the row validity words' popcounts, so counting the
	// offered nominations costs Rows word ops, not a cell rescan.
	req := int64(mx.ValidCount())
	ia.m.Requests += req
	ia.m.Grants += int64(len(gs))
	ia.m.Conflicts += req - int64(len(gs))
	return gs
}
