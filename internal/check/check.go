// Package check is the simulation oracle: an online invariant layer that
// watches a running timing simulation for the failure classes a torus /
// virtual-channel simulator must never exhibit — packet leaks, credit
// accounting corruption, illegal arbitration grants, and silent deadlock
// or livelock. It exists because golden fingerprints pin *a* behavior,
// not a *correct* one: after an aggressive hot-path refactor the
// fingerprints can reproduce a wrong behavior byte for byte, while the
// invariants here hold only for correct ones. It is the simulator's one
// invariant checker: tests that need conservation or credit bounds run
// a Checker too.
//
// The oracle has two halves:
//
//   - Push hooks: New installs the Checker as the router.Oracle of every
//     router it watches, and the routers report every arbitration
//     decision through it (SPAA nominations and resolutions, PIM1/WFA
//     wave matrices and grants). The Checker verifies grant legality
//     online — every grant matches a pending request, no read port or
//     output port is granted twice in a resolution, and wave matrices
//     satisfy the 21364 builder constraints.
//   - Pull sweeps: Sweep (which Schedule runs every sweepCycles router
//     cycles) and Final (at drain) read the network's conservation
//     counters, every router's buffer occupancy and credit pools, and the
//     packet arena's live count, and run the deadlock/livelock watchdog.
//
// Cost model: when disabled nothing is wired — each of the router's hook
// sites costs one nil test, and the hot-path allocation counts stay at
// zero. When enabled, the hooks add bounded per-resolution work (reused
// scratch, one map lookup for the router's pending nominations) and the
// sweeps add an O(routers × channels) scan every sweepCycles cycles.
//
// A Checker serves one simulation, on the goroutine that runs it: the
// router hooks and the sweep events arrive in event order, so it needs
// no lock.
package check

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"strings"

	"alpha21364/internal/core"
	"alpha21364/internal/obs"
	"alpha21364/internal/ports"
	"alpha21364/internal/router"
	"alpha21364/internal/sim"
	"alpha21364/internal/vc"
)

const (
	// horizonCycles is the deadlock watchdog's no-progress horizon: with
	// packets in flight and no delivery for this many router cycles, the
	// watchdog declares the network stuck. It is far beyond any healthy
	// run's inter-delivery gap, including saturation.
	horizonCycles = 10000
	// sweepCycles is the router-cycle interval at which Schedule runs
	// Sweep.
	sweepCycles = 256
)

// Probes give the Checker its read-only view of the simulation. Every
// probe is optional (nil skips the checks that need it), so hand-built
// test rigs can wire only what they have.
type Probes struct {
	// Injected and Delivered are the network-wide conservation counters:
	// packets accepted at local input ports and packets dispatched to
	// local output ports.
	Injected  func() int64
	Delivered func() int64
	// Buffered is the total packets buffered across all routers, and
	// LinkFlight the packets on inter-router wires.
	Buffered   func() int
	LinkFlight func() int64
	// PendingInjections counts packets queued processor-side awaiting
	// buffer space; ArenaLive is the packet arena's checked-out count;
	// Sunk counts fully processed (released) deliveries. Together they
	// close the arena leak check.
	PendingInjections func() int
	ArenaLive         func() int
	Sunk              func() int64
	// Stop halts the simulation on the first violation (typically
	// Engine.Stop); the Checker still records the violation without it.
	Stop func()
	// Routers are the routers to watch. New installs the Checker as the
	// oracle of each; the sweeps bound their buffers and credit pools;
	// the watchdog names their stuck buffers and dumps the flight
	// recorder of each router holding one, turning "stuck
	// (router,in,ch)" into a replayable last-N-events trace. The first
	// router's clock period sets the sweep interval and the watchdog
	// horizon in ticks (sim.RouterPeriod without routers).
	Routers []*router.Router
}

// StuckVC names one stuck buffer in a watchdog report.
type StuckVC struct {
	Node     int        `json:"node"`
	In       ports.In   `json:"in"`
	Ch       vc.Channel `json:"ch"`
	Queued   int        `json:"queued"`
	OldestID uint64     `json:"oldest_id"`
	// Waited is how long the buffer's oldest packet has been sitting.
	Waited sim.Ticks `json:"waited"`
}

func (s StuckVC) String() string {
	return fmt.Sprintf("router %d %v/%v: %d queued, oldest packet %d waited %d ticks",
		s.Node, s.In, s.Ch, s.Queued, s.OldestID, s.Waited)
}

// Violation is a structured invariant failure. It implements error and
// marshals to JSON so harnesses can log it structurally.
type Violation struct {
	// Invariant is the failed class: "grant-legality", "wave-matrix",
	// "vc-bounds", "credit-bounds", "conservation", "arena-leak", or
	// "watchdog".
	Invariant string `json:"invariant"`
	// Node is the router the violation is local to, -1 for network-wide
	// invariants.
	Node int `json:"node"`
	// At is the engine tick of detection.
	At sim.Ticks `json:"at"`
	// Msg describes the failure.
	Msg string `json:"msg"`
	// Stuck lists the stuck buffers of a watchdog violation.
	Stuck []StuckVC `json:"stuck,omitempty"`
	// Trace holds the flight-recorder dumps of a watchdog violation's
	// stuck routers that have one installed: the last-N engine events
	// per stuck router, oldest first.
	Trace []obs.FlightDump `json:"trace,omitempty"`
}

func (v *Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "check: %s invariant violated at tick %d", v.Invariant, v.At)
	if v.Node >= 0 {
		fmt.Fprintf(&b, " (router %d)", v.Node)
	}
	b.WriteString(": ")
	b.WriteString(v.Msg)
	for _, s := range v.Stuck {
		b.WriteString("\n  ")
		b.WriteString(s.String())
	}
	for _, d := range v.Trace {
		if enc, err := json.Marshal(d); err == nil {
			b.WriteString("\n  flight ")
			b.Write(enc)
		}
	}
	return b.String()
}

// pendingNom is one SPAA nomination awaiting its GA resolution.
type pendingNom struct {
	g         router.SPAAGrant
	resolveAt sim.Ticks
}

// Checker is the oracle. Its push hooks run inside the routers' ticks and
// its pull sweeps as events on the engine; after the first violation it
// checks nothing more.
type Checker struct {
	probes Probes
	period sim.Ticks // the routers' clock period
	// pending holds each router's SPAA nominations awaiting their GA
	// resolution.
	pending map[*router.Router][]pendingNom
	v       *Violation

	// Reused scratch for the wave-matrix check.
	keyBuf []uint64
	rowBuf []int
	colBuf []int

	// Watchdog state.
	watchInit     bool
	lastDelivered int64
	progressAt    sim.Ticks
}

// New builds a Checker over the given probes and installs it as the
// oracle of every router in probes.Routers, which enables the
// grant-legality hooks. Schedule runs the periodic sweeps; call Final at
// drain for the rest.
func New(probes Probes) *Checker {
	c := &Checker{
		probes:  probes,
		period:  sim.RouterPeriod,
		pending: make(map[*router.Router][]pendingNom, len(probes.Routers)),
	}
	if len(probes.Routers) > 0 {
		c.period = probes.Routers[0].Config().RouterPeriod
	}
	for _, r := range probes.Routers {
		r.SetOracle(c)
	}
	return c
}

// Schedule runs Sweep on eng every sweepCycles router cycles, starting
// one interval from now, until the first violation. The sweeps only read
// simulation state, so a clean checked run stays byte-identical to an
// unchecked one.
func (c *Checker) Schedule(eng *sim.Engine) {
	interval := sweepCycles * c.period
	var sweep func()
	sweep = func() {
		c.Sweep(eng.Now())
		if c.v == nil {
			eng.ScheduleDelay(interval, sweep)
		}
	}
	eng.ScheduleDelay(interval, sweep)
}

// Err returns the first violation as an error, nil if none.
func (c *Checker) Err() error {
	if c.v == nil {
		return nil
	}
	return c.v
}

// Violation returns the structured first failure, nil if none.
func (c *Checker) Violation() *Violation { return c.v }

// fail records the first violation and stops the simulation.
func (c *Checker) fail(v *Violation) {
	if c.v != nil {
		return
	}
	c.v = v
	if c.probes.Stop != nil {
		c.probes.Stop()
	}
}

func (c *Checker) failf(invariant string, node int, at sim.Ticks, format string, args ...any) {
	c.fail(&Violation{Invariant: invariant, Node: node, At: at, Msg: fmt.Sprintf(format, args...)})
}

// ---- push hooks (router.Oracle) ----

// SPAANominate implements router.Oracle: it records the nomination so the
// matching resolution can be verified against a pending request.
func (c *Checker) SPAANominate(r *router.Router, now sim.Ticks, g router.SPAAGrant, resolveAt sim.Ticks) {
	if c.v != nil {
		return
	}
	if resolveAt < now {
		c.failf("grant-legality", int(r.Node()), now,
			"nomination of packet %d resolves in the past (tick %d)", g.ID, resolveAt)
		return
	}
	c.pending[r] = append(c.pending[r], pendingNom{g: g, resolveAt: resolveAt})
}

// SPAAResolve implements router.Oracle: every committed grant must match
// a pending nomination due now, and no read-port row or output port may
// be granted twice in one resolution.
func (c *Checker) SPAAResolve(r *router.Router, now sim.Ticks, grants []router.SPAAGrant) {
	if c.v != nil {
		return
	}
	node := int(r.Node())
	pending := c.pending[r]
	for i := range grants {
		g := &grants[i]
		for j := 0; j < i; j++ {
			if grants[j].Out == g.Out {
				c.failf("grant-legality", node, now,
					"output port %v granted twice in one resolution (packets %d and %d)",
					g.Out, grants[j].ID, g.ID)
				return
			}
			if grants[j].Row == g.Row {
				c.failf("grant-legality", node, now,
					"read port row %d granted twice in one resolution (packets %d and %d)",
					g.Row, grants[j].ID, g.ID)
				return
			}
		}
		var ok bool
		if pending, ok = consumePending(pending, g, now); !ok {
			c.failf("grant-legality", node, now,
				"grant of packet %d to %v matches no pending nomination", g.ID, g.Out)
			return
		}
	}
	// Every nomination due by now has been resolved (granted or reset);
	// drop the batch.
	kept := pending[:0]
	for _, p := range pending {
		if p.resolveAt > now {
			kept = append(kept, p)
		}
	}
	c.pending[r] = kept
}

// consumePending removes from pending the nomination a grant commits,
// reporting whether there was one.
func consumePending(pending []pendingNom, g *router.SPAAGrant, now sim.Ticks) ([]pendingNom, bool) {
	for i := range pending {
		p := &pending[i]
		if p.g.ID == g.ID && p.g.Out == g.Out && p.g.Row == g.Row && p.resolveAt <= now {
			pending[i] = pending[len(pending)-1]
			return pending[:len(pending)-1], true
		}
	}
	return pending, false
}

// WaveResolve implements router.Oracle: the connection matrix must
// satisfy the 21364 builder invariants (a packet in at most one row and
// two columns, every valid cell a real request) and the grants must form
// a matching over valid cells.
func (c *Checker) WaveResolve(r *router.Router, now sim.Ticks, m *core.Matrix, grants []core.Grant) {
	if c.v != nil {
		return
	}
	node := int(r.Node())
	// Builder invariants over the matrix, iterating the row validity
	// words so only populated cells are visited.
	c.keyBuf, c.rowBuf, c.colBuf = c.keyBuf[:0], c.rowBuf[:0], c.colBuf[:0]
	for row := 0; row < m.Rows; row++ {
		for w := m.RowMask(row); w != 0; w &= w - 1 {
			col := bits.TrailingZeros64(w)
			cell := m.At(row, col)
			seen := false
			for i, k := range c.keyBuf {
				if k != cell.Key {
					continue
				}
				seen = true
				if c.rowBuf[i] != row {
					c.failf("wave-matrix", node, now,
						"packet %d nominated by rows %d and %d", cell.Key, c.rowBuf[i], row)
					return
				}
				c.colBuf[i]++
				if c.colBuf[i] > 2 {
					c.failf("wave-matrix", node, now,
						"packet %d nominated to more than two columns", cell.Key)
					return
				}
			}
			if !seen {
				c.keyBuf = append(c.keyBuf, cell.Key)
				c.rowBuf = append(c.rowBuf, row)
				c.colBuf = append(c.colBuf, 1)
			}
		}
	}
	// Grants form a matching over valid cells; the used row/column sets
	// are single words (core.MaxDim bounds the shape).
	var usedRow, usedCol uint64
	for _, g := range grants {
		if g.Row < 0 || g.Row >= m.Rows || g.Col < 0 || g.Col >= m.Cols {
			c.failf("grant-legality", node, now, "wave grant (%d,%d) out of range", g.Row, g.Col)
			return
		}
		cell := m.At(g.Row, g.Col)
		if !cell.Valid || cell.Key != g.Cell.Key {
			c.failf("grant-legality", node, now,
				"wave grant (%d,%d) of packet %d matches no pending request", g.Row, g.Col, g.Cell.Key)
			return
		}
		if usedRow&(1<<uint(g.Row)) != 0 {
			c.failf("grant-legality", node, now, "read port row %d granted twice in one wave", g.Row)
			return
		}
		if usedCol&(1<<uint(g.Col)) != 0 {
			c.failf("grant-legality", node, now, "output column %d granted twice in one wave", g.Col)
			return
		}
		usedRow |= 1 << uint(g.Row)
		usedCol |= 1 << uint(g.Col)
	}
}

// ---- pull sweeps ----

// Sweep runs the periodic invariants at tick now: buffer occupancy and
// credit bounds per (port, channel), packet conservation, the arena leak
// cross-check, and the deadlock watchdog.
func (c *Checker) Sweep(now sim.Ticks) {
	if c.v != nil {
		return
	}
	c.checkBounds(now)
	c.checkFlow(now, true)
}

// Final runs the drain-time invariants: everything Sweep checks except
// the watchdog (a run may legitimately end with packets in flight).
func (c *Checker) Final(now sim.Ticks) {
	if c.v != nil {
		return
	}
	c.checkBounds(now)
	c.checkFlow(now, false)
}

// checkBounds verifies per-(port, channel) buffer occupancy and credit
// pools against the configured capacities.
func (c *Checker) checkBounds(now sim.Ticks) {
	for _, r := range c.probes.Routers {
		cfg := r.Config().Buffers
		node := int(r.Node())
		for in := ports.In(0); in < ports.NumIn; in++ {
			for ch := vc.Channel(0); ch < vc.NumChannels; ch++ {
				if n, capacity := r.QueueLen(in, ch), cfg.Capacity(ch); n > capacity {
					c.failf("vc-bounds", node, now,
						"%v/%v holds %d packets, capacity %d", in, ch, n, capacity)
					return
				}
			}
		}
		for out := ports.Out(0); out < ports.NumOut; out++ {
			if !out.IsNetwork() {
				continue
			}
			cr := r.OutputCredits(out)
			if cr == nil {
				continue // unconnected port in a hand-built rig
			}
			for ch := vc.Channel(0); ch < vc.NumChannels; ch++ {
				free, capacity := cr.Free(ch), cfg.Capacity(ch)
				if free < 0 {
					c.failf("credit-bounds", node, now,
						"%v/%v has %d free credits (over-reserved)", out, ch, free)
					return
				}
				if free > capacity {
					c.failf("credit-bounds", node, now,
						"%v/%v has %d free credits, capacity %d (double release)", out, ch, free, capacity)
					return
				}
			}
		}
	}
}

// checkFlow reads the conservation counters once and runs the
// conservation, arena-leak, and (on sweeps) watchdog checks over the
// shared snapshot, so one sweep costs one pass over the probes however
// many invariants consume the counters.
func (c *Checker) checkFlow(now sim.Ticks, watchdog bool) {
	p := &c.probes
	if p.Delivered == nil || p.Buffered == nil {
		return
	}
	delivered := p.Delivered()
	buffered := int64(p.Buffered())
	var flight int64
	if p.LinkFlight != nil {
		flight = p.LinkFlight()
	}
	if p.Injected != nil {
		injected := p.Injected()
		if injected != delivered+buffered+flight {
			c.failf("conservation", -1, now,
				"%d injected != %d delivered + %d buffered + %d on links (leak or duplication of %d packets)",
				injected, delivered, buffered, flight, injected-(delivered+buffered+flight))
			return
		}
		if p.ArenaLive != nil {
			var pending, sinkFlight int64
			if p.PendingInjections != nil {
				pending = int64(p.PendingInjections())
			}
			if p.Sunk != nil {
				sinkFlight = delivered - p.Sunk()
			}
			accounted := buffered + flight + pending + sinkFlight
			if live := int64(p.ArenaLive()); live != accounted {
				c.failf("arena-leak", -1, now,
					"arena holds %d live packets but only %d are accounted for (%d buffered + %d on links + %d pending injection + %d awaiting sink)",
					live, accounted, buffered, flight, pending, sinkFlight)
				return
			}
		}
	}
	if !watchdog {
		return
	}
	c.checkWatchdog(now, delivered, buffered+flight)
}

// checkWatchdog declares the network stuck when packets are in flight but
// nothing has been delivered for horizonCycles, names the stuck buffers,
// and dumps the flight recorders of the routers holding them.
func (c *Checker) checkWatchdog(now sim.Ticks, delivered, inFlight int64) {
	if !c.watchInit || delivered != c.lastDelivered {
		c.watchInit = true
		c.lastDelivered = delivered
		c.progressAt = now
		return
	}
	if inFlight == 0 || now-c.progressAt < horizonCycles*c.period {
		return
	}
	v := &Violation{
		Invariant: "watchdog",
		Node:      -1,
		At:        now,
		Msg: fmt.Sprintf("%d packets in flight but no delivery for %d ticks (horizon %d cycles)",
			inFlight, now-c.progressAt, horizonCycles),
	}
	for _, r := range c.probes.Routers {
		node, stuck := int(r.Node()), len(v.Stuck)
		r.ScanOccupied(func(in ports.In, ch vc.Channel, queued int, oldestID uint64, oldestArrive sim.Ticks) {
			v.Stuck = append(v.Stuck, StuckVC{
				Node: node, In: in, Ch: ch, Queued: queued,
				OldestID: oldestID, Waited: now - oldestArrive,
			})
		})
		if ring := r.Flight(); ring != nil && len(v.Stuck) > stuck {
			v.Trace = append(v.Trace, ring.Dump(node))
		}
	}
	c.fail(v)
}
