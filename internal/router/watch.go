package router

// watch.go is the router's one observation seam. Everything that watches
// a router hangs off one pointer, Router.watch: the arbitration oracle
// (internal/check), the telemetry counters and the flight recorder
// (internal/obs). An unwatched router holds nil, and each hook site in
// the pipeline is one `if w := r.watch; w != nil` around one method
// below, so an unwatched router pays one nil test per site and a watched
// one runs only what is installed. With something installed, every event
// is a handful of field writes on preallocated structs or one oracle
// call: no allocation once the oracle's grant record has grown, and no
// effect on simulation state, so a watched run produces byte-identical
// Results (test-enforced in internal/experiment).

import (
	"alpha21364/internal/core"
	"alpha21364/internal/obs"
	"alpha21364/internal/ports"
	"alpha21364/internal/sim"
)

// watch holds what SetOracle, SetMetrics and SetFlight install. The
// router drops it once all three are nil.
type watch struct {
	oracle Oracle
	// grants is the oracle's record of one SPAA GA resolution's
	// dispatches, reused across resolutions.
	grants  []SPAAGrant
	metrics *obs.RouterMetrics
	flight  *obs.FlightRing
}

// observe applies set to the router's watch, creating the watch on
// demand and dropping it once nothing is installed.
func (r *Router) observe(set func(w *watch)) {
	w := r.watch
	if w == nil {
		w = &watch{}
	}
	set(w)
	if w.oracle == nil && w.metrics == nil && w.flight == nil {
		w = nil
	}
	r.watch = w
}

// SetOracle installs (or, with nil, removes) the arbitration oracle.
func (r *Router) SetOracle(o Oracle) { r.observe(func(w *watch) { w.oracle = o }) }

// SetMetrics installs (or, with nil, removes) the router's preallocated
// counter block. The router counts arbitration itself, right after the
// grant policy's Select and the wave arbiter's Arbitrate, so installing
// the same block twice counts each event once.
func (r *Router) SetMetrics(m *obs.RouterMetrics) { r.observe(func(w *watch) { w.metrics = m }) }

// SetFlight installs (or, with nil, removes) the router's flight
// recorder: a fixed ring of recent events the deadlock watchdog dumps
// alongside its Violation.
func (r *Router) SetFlight(f *obs.FlightRing) { r.observe(func(w *watch) { w.flight = f }) }

// Flight returns the installed flight recorder, nil if none.
func (r *Router) Flight() *obs.FlightRing {
	if r.watch == nil {
		return nil
	}
	return r.watch.flight
}

// spaaGrant describes SPAA nomination n of packet rec to the oracle.
func spaaGrant(rec *pkRec, n *nomination) SPAAGrant {
	return SPAAGrant{
		ID: rec.pkt.ID, Row: n.row, In: rec.meta.in, Ch: rec.meta.ch,
		Out: n.out, TargetCh: n.targetCh, Local: n.local,
	}
}

// buffered observes packet rec entering its input ring at its header
// arrival: injected on a local input port, or arrived from a link on a
// network one.
func (w *watch) buffered(rec *pkRec) {
	in, ch, at := rec.meta.in, rec.meta.ch, rec.headerArrive
	if m := w.metrics; m != nil {
		m.QueueDelta(in, ch, +1, at)
	}
	if f := w.flight; f != nil {
		kind := obs.FlightArrive
		if !in.IsNetwork() {
			kind = obs.FlightInject
		}
		f.Record(at, kind, rec.pkt.ID, in, ch, ports.NumOut)
	}
}

// nominated observes packet rec nominated for output out at tick now:
// an SPAA LA stage's nomination n, or (n nil) a cell of a wave, which
// the oracle sees whole in waveArbitrated.
func (w *watch) nominated(r *Router, now sim.Ticks, rec *pkRec, out ports.Out, n *nomination) {
	if f := w.flight; f != nil {
		f.Record(now, obs.FlightNominate, rec.pkt.ID, rec.meta.in, rec.meta.ch, out)
	}
	if o := w.oracle; o != nil && n != nil {
		o.SPAANominate(r, now, spaaGrant(rec, n), n.resolveAt)
	}
}

// failed observes a nomination invalidated before arbitration: its
// output was still busy or, with busy false, its downstream channel had
// no credit.
func (w *watch) failed(busy bool) {
	if m := w.metrics; m != nil {
		if busy {
			m.Stalls++
		} else {
			m.CreditWaits++
		}
		m.Arb.NomFailures++
	}
}

// reset observes packet rec returning to the buffered state at tick now:
// its nomination failed or lost arbitration.
func (w *watch) reset(now sim.Ticks, rec *pkRec) {
	if f := w.flight; f != nil {
		f.Record(now, obs.FlightReset, rec.pkt.ID, rec.meta.in, rec.meta.ch, ports.NumOut)
	}
}

// selected observes the SPAA grant policy picking nomination win, of
// packet rec, among one output's k valid nominations.
func (w *watch) selected(k int, rec *pkRec, win *nomination) {
	if m := w.metrics; m != nil {
		m.Arb.Requests += int64(k)
		m.Arb.Grants++
		m.Arb.Conflicts += int64(k - 1)
	}
	if w.oracle != nil {
		w.grants = append(w.grants, spaaGrant(rec, win))
	}
}

// resolved reports one SPAA GA resolution at tick now, every dispatch
// it committed, to the oracle.
func (w *watch) resolved(r *Router, now sim.Ticks) {
	if o := w.oracle; o != nil {
		o.SPAAResolve(r, now, w.grants)
		w.grants = w.grants[:0]
	}
}

// waveArbitrated observes one wave's arbitration at tick now: the
// connection matrix as arbitrated and the arbiter's raw grants, before
// the commit loop filters stale cells.
func (w *watch) waveArbitrated(r *Router, now sim.Ticks, mx *core.Matrix, grants []core.Grant) {
	if m := w.metrics; m != nil {
		// ValidCount sums the row validity words' popcounts, so counting
		// the offered nominations costs Rows word ops, not a cell rescan.
		req := int64(mx.ValidCount())
		m.Arb.Requests += req
		m.Arb.Grants += int64(len(grants))
		m.Arb.Conflicts += req - int64(len(grants))
	}
	if o := w.oracle; o != nil {
		o.WaveResolve(r, now, mx, grants)
	}
}

// granted observes packet rec leaving its input ring at tick now for
// output out.
func (w *watch) granted(now sim.Ticks, rec *pkRec, out ports.Out) {
	if m := w.metrics; m != nil {
		m.QueueDelta(rec.meta.in, rec.meta.ch, -1, now)
	}
	if f := w.flight; f != nil {
		f.Record(now, obs.FlightGrant, rec.pkt.ID, rec.meta.in, rec.meta.ch, out)
	}
}
