// Package check is the simulation oracle: an online invariant layer that
// watches a running timing simulation for the failure classes a torus /
// virtual-channel simulator must never exhibit — packet leaks, credit
// accounting corruption, illegal arbitration grants, and silent deadlock
// or livelock. It exists because golden fingerprints pin *a* behavior,
// not a *correct* one: after an aggressive hot-path refactor the
// fingerprints can reproduce a wrong behavior byte for byte, while the
// invariants here hold only for correct ones.
//
// The oracle has two halves:
//
//   - Push hooks: the router reports every arbitration decision through
//     the router.Oracle interface (SPAA nominations and resolutions,
//     PIM1/WFA wave matrices and grants), and the Checker verifies grant
//     legality online — every grant matches a pending request, no read
//     port or output port is granted twice in a resolution, and wave
//     matrices satisfy the 21364 builder constraints.
//   - Pull sweeps: Sweep (scheduled periodically by the harness) and
//     Final (at drain) read the network's conservation counters, every
//     router's buffer occupancy and credit pools, and the packet arena's
//     live count, and run the deadlock/livelock watchdog.
//
// Cost model: when disabled nothing is wired — the router's only residual
// cost is one nil test per GA resolution, and the hot-path allocation
// counts stay at zero. When enabled, the hooks add bounded per-resolution
// work (no maps, reused scratch) and the sweeps add an O(routers ×
// channels) scan every EveryCycles cycles.
package check

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"

	"alpha21364/internal/core"
	"alpha21364/internal/obs"
	"alpha21364/internal/ports"
	"alpha21364/internal/router"
	"alpha21364/internal/sim"
	"alpha21364/internal/vc"
)

// Config tunes the oracle. The zero value picks the defaults.
type Config struct {
	// HorizonCycles is the deadlock watchdog's no-progress horizon: with
	// packets in flight and no delivery for this many router cycles, the
	// watchdog declares the network stuck. 0 means 10000 cycles — far
	// beyond any healthy run's inter-delivery gap, including saturation.
	HorizonCycles int
	// EveryCycles is the periodic sweep interval in router cycles; 0
	// means 256.
	EveryCycles int
	// RouterPeriod converts cycle counts to engine ticks; 0 means
	// sim.RouterPeriod.
	RouterPeriod sim.Ticks
}

func (c Config) withDefaults() Config {
	if c.HorizonCycles <= 0 {
		c.HorizonCycles = 10000
	}
	if c.EveryCycles <= 0 {
		c.EveryCycles = 256
	}
	if c.RouterPeriod <= 0 {
		c.RouterPeriod = sim.RouterPeriod
	}
	return c
}

// Probes give the Checker its read-only view of the simulation. Routers
// is required; every function probe is optional (nil skips the checks
// that need it), so hand-built test rigs can wire only what they have.
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
	// Routers are the routers to watch. The Checker installs nothing;
	// the harness is responsible for SetOracle on each.
	Routers []*router.Router
	// FlightRings, when non-nil, holds each router's flight recorder,
	// parallel to Routers. The deadlock watchdog dumps the stuck routers'
	// rings into its Violation, turning "stuck (router,in,ch)" into a
	// replayable last-N-events trace.
	FlightRings []*obs.FlightRing
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
	// Trace holds the stuck routers' flight-recorder dumps (watchdog
	// violations with Probes.FlightRings wired): the last-N engine events
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

// routerState is the Checker's per-router bookkeeping. Everything a push
// hook touches lives here (including the wave-matrix scratch), so hooks
// for different routers share no mutable state and would stay race-free
// without locks if routers were ever ticked concurrently.
type routerState struct {
	pending []pendingNom

	// Reused scratch for the wave-matrix and grant-legality checks.
	keyBuf []uint64
	rowBuf []int
	colBuf []int
}

// Checker is the oracle. The pull sweeps run as events on the engine.
// No caller ticks routers concurrently any more: every router edge runs
// on one goroutine. The hooks keep their concurrency safety until the
// router's hook fields change (ROADMAP item 9): each router's state is
// private, the failure fast path is an atomic flag, and the first
// violation wins under a mutex. Concurrent hook callers would have to be
// registered in Probes.Routers (New prepopulates their states); the
// lazy-registration path exists for serial hand-built rigs only.
type Checker struct {
	cfg    Config
	probes Probes
	states map[*router.Router]*routerState

	// failed is the hooks' lock-free "already violated" fast path; mu
	// serializes recording the first violation and lazy registration.
	failed atomic.Bool
	mu     sync.Mutex
	v      *Violation

	// Watchdog state.
	watchInit     bool
	lastDelivered int64
	progressAt    sim.Ticks
}

// New builds a Checker over the given probes. Install it on each router
// with SetOracle to enable the grant-legality hooks; schedule Sweep
// periodically and call Final at drain for the rest.
func New(cfg Config, probes Probes) *Checker {
	c := &Checker{
		cfg:    cfg.withDefaults(),
		probes: probes,
		states: make(map[*router.Router]*routerState, len(probes.Routers)),
	}
	for _, r := range probes.Routers {
		c.states[r] = &routerState{}
	}
	return c
}

// Interval returns the sweep period in engine ticks.
func (c *Checker) Interval() sim.Ticks {
	return sim.Ticks(c.cfg.EveryCycles) * c.cfg.RouterPeriod
}

// Err returns the first violation as an error, nil if none.
func (c *Checker) Err() error {
	if v := c.Violation(); v != nil {
		return v
	}
	return nil
}

// Violation returns the structured first failure, nil if none.
func (c *Checker) Violation() *Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// fail records the first violation and stops the simulation. Concurrent
// callers race for first; exactly one records and calls Stop.
func (c *Checker) fail(v *Violation) {
	c.mu.Lock()
	if c.v != nil {
		c.mu.Unlock()
		return
	}
	c.v = v
	c.failed.Store(true)
	c.mu.Unlock()
	if c.probes.Stop != nil {
		c.probes.Stop()
	}
}

// state returns r's bookkeeping, registering it on first use (serial
// rigs only; see the Checker doc comment).
func (c *Checker) state(r *router.Router) *routerState {
	if st := c.states[r]; st != nil {
		return st
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.states[r]
	if st == nil {
		st = &routerState{}
		c.states[r] = st
	}
	return st
}

func (c *Checker) failf(invariant string, node int, at sim.Ticks, format string, args ...any) {
	c.fail(&Violation{Invariant: invariant, Node: node, At: at, Msg: fmt.Sprintf(format, args...)})
}

// ---- push hooks (router.Oracle) ----

// SPAANominate implements router.Oracle: it records the nomination so the
// matching resolution can be verified against a pending request.
func (c *Checker) SPAANominate(r *router.Router, now sim.Ticks, g router.SPAAGrant, resolveAt sim.Ticks) {
	if c.failed.Load() {
		return
	}
	st := c.state(r)
	if resolveAt < now {
		c.failf("grant-legality", int(r.Node()), now,
			"nomination of packet %d resolves in the past (tick %d)", g.ID, resolveAt)
		return
	}
	st.pending = append(st.pending, pendingNom{g: g, resolveAt: resolveAt})
}

// SPAAResolve implements router.Oracle: every committed grant must match
// a pending nomination due now, and no read-port row or output port may
// be granted twice in one resolution.
func (c *Checker) SPAAResolve(r *router.Router, now sim.Ticks, grants []router.SPAAGrant) {
	if c.failed.Load() {
		return
	}
	node := int(r.Node())
	st := c.states[r]
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
		if st == nil || !consumePending(st, g, now) {
			c.failf("grant-legality", node, now,
				"grant of packet %d to %v matches no pending nomination", g.ID, g.Out)
			return
		}
	}
	if st == nil {
		return
	}
	// Every nomination due by now has been resolved (granted or reset);
	// drop the batch.
	kept := st.pending[:0]
	for _, p := range st.pending {
		if p.resolveAt > now {
			kept = append(kept, p)
		}
	}
	st.pending = kept
}

// consumePending finds and removes the pending nomination a grant
// commits.
func consumePending(st *routerState, g *router.SPAAGrant, now sim.Ticks) bool {
	for i := range st.pending {
		p := &st.pending[i]
		if p.g.ID == g.ID && p.g.Out == g.Out && p.g.Row == g.Row && p.resolveAt <= now {
			st.pending[i] = st.pending[len(st.pending)-1]
			st.pending = st.pending[:len(st.pending)-1]
			return true
		}
	}
	return false
}

// WaveResolve implements router.Oracle: the connection matrix must
// satisfy the 21364 builder invariants (a packet in at most one row and
// two columns, every valid cell a real request) and the grants must form
// a matching over valid cells.
func (c *Checker) WaveResolve(r *router.Router, now sim.Ticks, m *core.Matrix, grants []core.Grant) {
	if c.failed.Load() {
		return
	}
	node := int(r.Node())
	st := c.state(r)
	// Builder invariants over the matrix, iterating the row validity
	// words so only populated cells are visited.
	st.keyBuf, st.rowBuf, st.colBuf = st.keyBuf[:0], st.rowBuf[:0], st.colBuf[:0]
	for row := 0; row < m.Rows; row++ {
		for w := m.RowMask(row); w != 0; w &= w - 1 {
			col := bits.TrailingZeros64(w)
			cell := m.At(row, col)
			seen := false
			for i, k := range st.keyBuf {
				if k != cell.Key {
					continue
				}
				seen = true
				if st.rowBuf[i] != row {
					c.failf("wave-matrix", node, now,
						"packet %d nominated by rows %d and %d", cell.Key, st.rowBuf[i], row)
					return
				}
				st.colBuf[i]++
				if st.colBuf[i] > 2 {
					c.failf("wave-matrix", node, now,
						"packet %d nominated to more than two columns", cell.Key)
					return
				}
			}
			if !seen {
				st.keyBuf = append(st.keyBuf, cell.Key)
				st.rowBuf = append(st.rowBuf, row)
				st.colBuf = append(st.colBuf, 1)
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
// cross-check, and the deadlock watchdog. Schedule it every Interval()
// ticks.
func (c *Checker) Sweep(now sim.Ticks) {
	if c.failed.Load() {
		return
	}
	c.checkBounds(now)
	c.checkFlow(now, true)
}

// Final runs the drain-time invariants: everything Sweep checks except
// the watchdog (a run may legitimately end with packets in flight).
func (c *Checker) Final(now sim.Ticks) {
	if c.failed.Load() {
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
// nothing has been delivered for the configured horizon, and names the
// stuck buffers.
func (c *Checker) checkWatchdog(now sim.Ticks, delivered, inFlight int64) {
	if !c.watchInit || delivered != c.lastDelivered {
		c.watchInit = true
		c.lastDelivered = delivered
		c.progressAt = now
		return
	}
	horizon := sim.Ticks(c.cfg.HorizonCycles) * c.cfg.RouterPeriod
	if inFlight == 0 || now-c.progressAt < horizon {
		return
	}
	v := &Violation{
		Invariant: "watchdog",
		Node:      -1,
		At:        now,
		Msg: fmt.Sprintf("%d packets in flight but no delivery for %d ticks (horizon %d cycles)",
			inFlight, now-c.progressAt, c.cfg.HorizonCycles),
	}
	for _, r := range c.probes.Routers {
		node := int(r.Node())
		r.ScanOccupied(func(in ports.In, ch vc.Channel, queued int, oldestID uint64, oldestArrive sim.Ticks) {
			v.Stuck = append(v.Stuck, StuckVC{
				Node: node, In: in, Ch: ch, Queued: queued,
				OldestID: oldestID, Waited: now - oldestArrive,
			})
		})
	}
	// With flight recorders wired, attach each stuck router's trace once.
	if len(c.probes.FlightRings) == len(c.probes.Routers) {
		dumped := make(map[int]bool)
		for i, r := range c.probes.Routers {
			node := int(r.Node())
			ring := c.probes.FlightRings[i]
			if ring == nil || dumped[node] {
				continue
			}
			for _, s := range v.Stuck {
				if s.Node == node {
					dumped[node] = true
					v.Trace = append(v.Trace, ring.Dump(node))
					break
				}
			}
		}
	}
	c.fail(v)
}
