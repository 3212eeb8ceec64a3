package router

import (
	"fmt"
	"math/bits"

	"alpha21364/internal/core"
	"alpha21364/internal/obs"
	"alpha21364/internal/packet"
	"alpha21364/internal/ports"
	"alpha21364/internal/sim"
	"alpha21364/internal/topology"
	"alpha21364/internal/vc"
)

// Counters exposes router-level event counts for statistics and tests.
type Counters struct {
	Injected    int64 // packets accepted at local input ports
	Arrived     int64 // packets accepted from network links
	Nominations int64 // LA-stage nominations issued
	Grants      int64 // GA-stage grants (dispatches)
	Collisions  int64 // nominations reset without a grant
	// WastedSpecReads counts SPAA's speculative buffer reads that were
	// discarded because the output arbiter picked another packet (§3.3).
	WastedSpecReads int64
	DrainEntries    int64 // times the anti-starvation drain engaged
	DeliveredLocal  int64 // packets consumed by this node's local ports
}

// nomination is one SPAA in-flight nomination traveling LA -> RE -> GA.
// pk is a slab handle.
type nomination struct {
	pk        int32
	row       int
	out       ports.Out
	targetCh  vc.Channel
	local     bool
	resolveAt sim.Ticks
}

// waveCell carries the packet and move behind one wave-matrix cell; pk is
// a slab handle, -1 when the cell is empty.
type waveCell struct {
	pk       int32
	targetCh vc.Channel
	local    bool
}

// Router is one cycle-accurate 21364 router. Drive it by attaching it to a
// sim.Engine clock domain with the router's clock period.
type Router struct {
	cfg   Config
	node  topology.Node
	torus topology.Torus
	rng   *sim.RNG

	// Packet state lives in a struct-of-arrays slab; the per-(input port,
	// channel) queues are fixed-capacity index rings over it, and the
	// remaining per-input-port state is flattened into router-level
	// arrays so arbitration scans walk contiguous memory.
	slab   pkSlab
	queues [ports.NumIn][vc.NumChannels]vc.Ring
	// occ[in] is the occupancy index over in's rings: bit ch is set
	// exactly when queues[in][ch] is non-empty. addPacket's Push and
	// dispatch's Remove are the only ring mutations, and each updates
	// it, so scans visit the few occupied rings instead of all 152.
	occ [ports.NumIn]uint32
	// lruStamp[in][ch] is when in last selected ch, on the per-router
	// lruClock: ascending stamp order is the least-recently-selected
	// order over in's virtual channels. The 21364's input arbiter
	// "selects the oldest packet ... from the least-recently selected
	// virtual channel" (§3). New stamps channel ch with ch, so channels
	// never selected come first, in channel order; dispatch (touchVC)
	// is the only writer.
	lruStamp [ports.NumIn][vc.NumChannels]uint64
	lruClock uint64
	// feeders hold the injection credits for local ports (the processor's
	// view of the buffer's free space); nil for network inputs, whose
	// credits live at the upstream router's output port.
	feeders [ports.NumIn]*vc.Credits

	outputs [ports.NumOut]*outputPort

	// wave is true for the matrix-wave algorithms (PIM1/WFA), false for
	// SPAA's per-cycle nominations; fixed by New.
	wave bool

	// SPAA pipeline state.
	policy  core.SelectPolicy
	noms    []nomination // FIFO ordered by resolveAt
	dirPref [ports.NumIn]uint8
	nextLA  sim.Ticks

	// Wave (PIM1/WFA) pipeline state.
	arb           core.Arbiter
	matrix        *core.Matrix
	waveCells     [ports.NumRows][ports.NumOut]waveCell
	waveActive    bool
	waveResolveAt sim.Ticks
	nextWaveAt    sim.Ticks

	// Anti-starvation drain (§3.4).
	oldCount int
	draining bool

	// routes[dst] caches the static routing decision toward every node:
	// productive directions, the dimension-order escape hop, and its
	// dateline sub-channel. readyMoves consults it instead of redoing the
	// torus offset arithmetic per scan.
	routes []routeEntry
	// rowOf[in][out] is the read-port row of input in that the crossbar
	// connects to out, or -1 (see rowFor); built once from cfg.Conn.
	rowOf [ports.NumIn][ports.NumOut]int8

	// Derived tick quantities.
	postArbTicks sim.Ticks
	gaOffset     sim.Ticks // LA -> GA latency in ticks (SPAA nominations)
	// waveGaOffset is the build -> grant latency for PIM1/WFA waves: the
	// grant decision lands at the initiation interval (matrix operations),
	// and any remaining arbitration cycles are pipelined wire delay to the
	// output ports (paper §3.1-3.2). Waves therefore never overlap.
	waveGaOffset sim.Ticks
	ageTicks     sim.Ticks

	Counters Counters

	// oracle, when non-nil, observes every arbitration decision for
	// online invariant checking; oracleGrants is its reused record buffer.
	oracle       Oracle
	oracleGrants []SPAAGrant

	// metrics and flight, when non-nil, receive telemetry (see metrics.go).
	metrics *obs.RouterMetrics
	flight  *obs.FlightRing

	// scratch
	gaRows []int
	gaNet  []bool
	gaIdx  []int
	moves  []move
}

// New builds a router for the given node of the torus.
func New(cfg Config, node topology.Node, torus topology.Torus) (*Router, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Router{
		cfg:          cfg,
		node:         node,
		torus:        torus,
		rng:          sim.NewRNG(cfg.Seed ^ (uint64(node)+1)*0x9e3779b97f4a7c15),
		postArbTicks: sim.Ticks(cfg.PostArb) * cfg.RouterPeriod,
		gaOffset:     sim.Ticks(cfg.ArbCycles-1) * cfg.RouterPeriod,
		ageTicks:     sim.Ticks(cfg.AntiStarvationAge) * cfg.RouterPeriod,
		lruClock:     vc.NumChannels - 1,
	}
	waveGa := cfg.ArbCycles - 1
	if cfg.InitInterval < waveGa {
		waveGa = cfg.InitInterval
	}
	r.waveGaOffset = sim.Ticks(waveGa) * cfg.RouterPeriod
	for in := ports.In(0); in < ports.NumIn; in++ {
		initQueues(&r.queues[in], cfg.Buffers)
		for ch := range r.lruStamp[in] {
			r.lruStamp[in][ch] = uint64(ch)
		}
		for out := ports.Out(0); out < ports.NumOut; out++ {
			r.rowOf[in][out] = int8(rowFor(cfg.Conn, in, out))
		}
		if !in.IsNetwork() {
			r.feeders[in] = vc.NewCredits(cfg.Buffers)
		}
	}
	for row := range r.waveCells {
		for col := range r.waveCells[row] {
			r.waveCells[row][col].pk = -1
		}
	}
	for out := ports.Out(0); out < ports.NumOut; out++ {
		r.outputs[out] = &outputPort{id: out}
	}
	r.routes = make([]routeEntry, torus.Nodes())
	for dst := 0; dst < torus.Nodes(); dst++ {
		e := &r.routes[dst]
		e.dirs, e.nDirs = torus.ProductiveDirsFixed(node, topology.Node(dst))
		if d, ok := torus.DORDir(node, topology.Node(dst)); ok {
			e.dorOK, e.dor = true, d
			e.dorSub = vc.VC0
			if torus.WrapsAhead(node, topology.Node(dst), d) {
				e.dorSub = vc.VC1
			}
		}
	}
	switch cfg.Kind {
	case core.KindSPAABase, core.KindSPAARotary:
		if cfg.GrantPolicyFactory != nil {
			r.policy = cfg.GrantPolicyFactory(ports.NumRows, int(ports.NumOut))
		} else {
			r.policy = core.NewLRSPolicy(ports.NumRows, int(ports.NumOut),
				cfg.Kind == core.KindSPAARotary)
		}
	default:
		r.wave = true
		r.arb = core.New(cfg.Kind, r.rng.Split())
		r.matrix = core.NewRouterMatrix()
	}
	return r, nil
}

// Node returns the router's torus position.
func (r *Router) Node() topology.Node { return r.node }

// Config returns the router's configuration.
func (r *Router) Config() Config { return r.cfg }

// ConnectNetwork wires a torus output port: send is invoked on dispatch,
// and downstream describes the neighbor input buffer the port holds
// credits for.
func (r *Router) ConnectNetwork(out ports.Out, send SendFunc) {
	if !out.IsNetwork() {
		panic(fmt.Sprintf("router: %v is not a network port", out))
	}
	r.outputs[out].send = send
	r.outputs[out].credits = vc.NewCredits(r.cfg.Buffers)
}

// ConnectLocal wires a processor-facing output port to its sink.
func (r *Router) ConnectLocal(out ports.Out, deliver DeliverFunc) {
	if out.IsNetwork() {
		panic(fmt.Sprintf("router: %v is not a local port", out))
	}
	r.outputs[out].deliver = deliver
}

// injectionChannel returns the virtual channel a newly injected packet
// enters: the adaptive channel of its class, except I/O packets, which
// live in the deadlock-free channels only.
func (r *Router) injectionChannel(p *packet.Packet) vc.Channel {
	if !p.Class.IsIO() {
		return vc.Of(p.Class, vc.Adaptive)
	}
	sub := vc.VC0
	if route := &r.routes[p.Dst]; route.dorOK {
		sub = route.dorSub
	}
	return vc.Of(p.Class, sub)
}

// addPacket checks a packet into the slab and its queue, resolving the
// outputs it may ever use.
func (r *Router) addPacket(p *packet.Packet, in ports.In, ch vc.Channel,
	headerArrive, tailArrive, eligibleAt sim.Ticks, upstream *vc.Credits) {
	idx := r.slab.alloc()
	s := &r.slab
	s.pkt[idx] = p
	s.meta[idx] = pkMeta{ch: ch, in: in, outs: r.candidateOuts(p, in)}
	s.headerArrive[idx] = headerArrive
	s.tailArrive[idx] = tailArrive
	s.eligibleAt[idx] = eligibleAt
	s.upstream[idx] = upstream
	r.queues[in][ch].Push(idx)
	r.occ[in] |= 1 << ch
	if m := r.metrics; m != nil {
		m.QueueDelta(in, ch, +1, headerArrive)
	}
}

// Inject offers a packet to a local input port at time now. It returns
// false when the port's buffer has no space in the packet's channel; the
// caller (the processor model) must retry later — this backpressure is the
// throttling path the Rotary Rule exploits.
func (r *Router) Inject(p *packet.Packet, in ports.In, now sim.Ticks) bool {
	if in.IsNetwork() {
		panic(fmt.Sprintf("router: cannot inject on network port %v", in))
	}
	feeder := r.feeders[in]
	ch := r.injectionChannel(p)
	if !feeder.Available(ch) {
		return false
	}
	feeder.Reserve(ch)
	r.addPacket(p, in, ch,
		now,
		now+sim.Ticks(p.Flits-1)*r.cfg.RouterPeriod,
		now+sim.Ticks(r.cfg.PreArbLocal)*r.cfg.RouterPeriod,
		feeder)
	r.Counters.Injected++
	if f := r.flight; f != nil {
		f.Record(now, obs.FlightInject, p.ID, in, ch, ports.NumOut)
	}
	return true
}

// InjectionSpace returns the free packet-buffer count a new packet of
// class cl would see at local input port in (the processor's backpressure
// signal).
func (r *Router) InjectionSpace(in ports.In, cl packet.Class, dst topology.Node) int {
	if in.IsNetwork() {
		panic(fmt.Sprintf("router: %v is not a local port", in))
	}
	p := packet.Packet{Class: cl, Dst: dst}
	return r.feeders[in].Free(r.injectionChannel(&p))
}

// OutputCredits exposes a network output port's downstream credit pool;
// used by the network wiring and by tests that exercise backpressure.
func (r *Router) OutputCredits(out ports.Out) *vc.Credits {
	if !out.IsNetwork() {
		panic(fmt.Sprintf("router: %v has no credits", out))
	}
	return r.outputs[out].credits
}

// Arrive accepts a packet from an inter-router link. The upstream output
// port reserved a credit for targetCh before sending, so buffer space is
// guaranteed; creditHome is that port's credit pool, released when the
// packet leaves this router.
func (r *Router) Arrive(p *packet.Packet, in ports.In, targetCh vc.Channel,
	headerArrive sim.Ticks, creditHome *vc.Credits) {
	if r.queues[in][targetCh].Len() >= r.cfg.Buffers.Capacity(targetCh) {
		panic(fmt.Sprintf("router %d: buffer overflow on %v/%v — credit accounting broken",
			r.node, in, targetCh))
	}
	r.addPacket(p, in, targetCh,
		headerArrive,
		headerArrive+sim.Ticks(p.Flits-1)*r.cfg.LinkPeriod,
		headerArrive+sim.Ticks(r.cfg.PreArbNetwork)*r.cfg.RouterPeriod,
		creditHome)
	r.Counters.Arrived++
	if f := r.flight; f != nil {
		f.Record(headerArrive, obs.FlightArrive, p.ID, in, targetCh, ports.NumOut)
	}
}

// Buffered returns the number of packets buffered at the router.
func (r *Router) Buffered() int {
	n := 0
	for in := range r.queues {
		for w := r.occ[in]; w != 0; w &= w - 1 {
			n += r.queues[in][bits.TrailingZeros32(w)].Len()
		}
	}
	return n
}

// holdsPackets reports whether any input ring is non-empty.
func (r *Router) holdsPackets() bool {
	var w uint32
	for _, occ := range r.occ {
		w |= occ
	}
	return w != 0
}

// Draining reports whether the anti-starvation drain is active.
func (r *Router) Draining() bool { return r.draining }

// Tick advances the router one clock cycle: GA resolution first (grants
// commit, losers reset), then LA issue (new nominations or a new wave).
func (r *Router) Tick(now sim.Ticks) {
	if r.wave {
		r.tickWave(now)
	} else {
		r.tickSPAA(now)
	}
}

// ---- SPAA pipeline ----

func (r *Router) tickSPAA(now sim.Ticks) {
	// GA: resolve nominations due now, grouped by output port.
	due := 0
	for due < len(r.noms) && r.noms[due].resolveAt <= now {
		due++
	}
	if due > 0 {
		r.resolveSPAA(r.noms[:due], now)
		r.noms = r.noms[:copy(r.noms, r.noms[due:])]
	}

	// LA: one nomination per input port per initiation interval.
	if now < r.nextLA {
		return
	}
	r.nextLA = now + sim.Ticks(r.cfg.InitInterval)*r.cfg.RouterPeriod
	if !r.holdsPackets() {
		return
	}
	gaTick := now + r.gaOffset
	free := r.freeOutputs(gaTick)
	for in := ports.In(0); in < ports.NumIn; in++ {
		pk, mv, ok := r.findNomination(in, now, free)
		if !ok {
			continue
		}
		r.slab.meta[pk].flags |= pkNominated
		r.dirPref[in]++
		r.noms = append(r.noms, nomination{
			pk: pk, row: mv.row, out: mv.out, targetCh: mv.targetCh,
			local: mv.local, resolveAt: gaTick,
		})
		r.Counters.Nominations++
		if f := r.flight; f != nil {
			f.Record(now, obs.FlightNominate, r.slab.pkt[pk].ID, in, r.slab.meta[pk].ch, mv.out)
		}
		if r.oracle != nil {
			r.oracle.SPAANominate(r, now, SPAAGrant{
				ID: r.slab.pkt[pk].ID, Row: mv.row, In: in, Ch: r.slab.meta[pk].ch,
				Out: mv.out, TargetCh: mv.targetCh, Local: mv.local,
			}, gaTick)
		}
	}
}

// findNomination implements the 21364 input port arbiter: the oldest
// packet satisfying the basic constraints from the least-recently selected
// virtual channel (§3). free is the LA stage's free-for-grant output set.
func (r *Router) findNomination(in ports.In, now sim.Ticks, free ports.OutMask) (int32, move, bool) {
	s := &r.slab
	for occ := r.occ[in]; occ != 0; {
		ch := r.leastRecent(in, occ)
		occ &^= 1 << ch
		q := &r.queues[in][ch]
		limit := q.Len()
		if limit > r.cfg.Window {
			limit = r.cfg.Window
		}
		best := int32(-1)
		var bestMove move
		for i := 0; i < limit; i++ {
			pk := q.At(i)
			r.markOld(pk, now)
			meta := s.meta[pk]
			if meta.flags&pkNominated != 0 || s.eligibleAt[pk] > now {
				continue
			}
			if r.draining && meta.flags&pkOld == 0 {
				continue
			}
			if best >= 0 && !r.olderThan(pk, best) {
				continue
			}
			if meta.outs&free == 0 {
				continue // every output it could use is busy
			}
			r.moves = r.readyMoves(pk, free, r.moves[:0])
			if len(r.moves) == 0 {
				continue
			}
			best, bestMove = pk, r.moves[0]
		}
		if best >= 0 {
			return best, bestMove, true
		}
	}
	return -1, move{}, false
}

// leastRecent returns the channel in set (a non-empty channel bitmask)
// that input in selected longest ago: the one with the smallest stamp.
func (r *Router) leastRecent(in ports.In, set uint32) int {
	stamp := &r.lruStamp[in]
	ch := bits.TrailingZeros32(set)
	for w := set & (set - 1); w != 0; w &= w - 1 {
		if c := bits.TrailingZeros32(w); stamp[c] < stamp[ch] {
			ch = c
		}
	}
	return ch
}

// olderThan orders two buffered packets by arrival, then packet ID.
func (r *Router) olderThan(a, b int32) bool {
	s := &r.slab
	if s.headerArrive[a] != s.headerArrive[b] {
		return s.headerArrive[a] < s.headerArrive[b]
	}
	return s.pkt[a].ID < s.pkt[b].ID
}

// resolveSPAA is the GA stage: for each output port with due nominations,
// the grant policy picks a winner among still-valid requests; the rest are
// reset for re-nomination (SPAA step 3).
func (r *Router) resolveSPAA(due []nomination, now sim.Ticks) {
	if r.oracle != nil {
		r.oracleGrants = r.oracleGrants[:0]
	}
	for out := ports.Out(0); out < ports.NumOut; out++ {
		r.gaRows = r.gaRows[:0]
		r.gaNet = r.gaNet[:0]
		r.gaIdx = r.gaIdx[:0]
		op := r.outputs[out]
		for i := range due {
			n := &due[i]
			if n.out != out {
				continue
			}
			valid := op.freeForGrant(now, r.postArbTicks) &&
				(n.local || (op.credits != nil && op.credits.Available(n.targetCh)))
			if !valid {
				if m := r.metrics; m != nil {
					if !op.freeForGrant(now, r.postArbTicks) {
						m.Stalls++
					} else {
						m.CreditWaits++
					}
					m.Arb.NomFailures++
				}
				r.reset(n.pk, now)
				n.pk = -1
				continue
			}
			r.gaRows = append(r.gaRows, n.row)
			r.gaNet = append(r.gaNet, r.slab.meta[n.pk].in.IsNetwork())
			r.gaIdx = append(r.gaIdx, i)
		}
		if len(r.gaRows) == 0 {
			continue
		}
		w := r.policy.Select(int(out), r.gaRows, r.gaNet)
		for k, idx := range r.gaIdx {
			n := &due[idx]
			if k == w {
				if r.oracle != nil {
					r.oracleGrants = append(r.oracleGrants, SPAAGrant{
						ID: r.slab.pkt[n.pk].ID, Row: n.row, In: r.slab.meta[n.pk].in,
						Ch: r.slab.meta[n.pk].ch, Out: n.out, TargetCh: n.targetCh, Local: n.local,
					})
				}
				r.dispatch(n.pk, n.out, n.targetCh, n.local, now)
			} else {
				r.reset(n.pk, now)
				r.Counters.WastedSpecReads++
			}
			n.pk = -1
		}
	}
	// Any nominations left unprocessed would be a bookkeeping bug.
	for i := range due {
		if due[i].pk >= 0 {
			panic("router: unresolved nomination")
		}
	}
	if r.oracle != nil {
		r.oracle.SPAAResolve(r, now, r.oracleGrants)
	}
}

func (r *Router) reset(pk int32, now sim.Ticks) {
	meta := &r.slab.meta[pk]
	meta.flags &^= pkNominated
	r.Counters.Collisions++
	if f := r.flight; f != nil {
		f.Record(now, obs.FlightReset, r.slab.pkt[pk].ID, meta.in, meta.ch, ports.NumOut)
	}
}

// ---- PIM1/WFA wave pipeline ----

func (r *Router) tickWave(now sim.Ticks) {
	if r.waveActive && now >= r.waveResolveAt {
		r.resolveWave(now)
	}
	if now < r.nextWaveAt || r.waveActive {
		return
	}
	// Waves restart on their fixed cadence whether or not the previous one
	// found work (the paper: "a new arbitration can be started every three
	// cycles").
	r.nextWaveAt = now + sim.Ticks(r.cfg.InitInterval)*r.cfg.RouterPeriod
	if r.buildWave(now) {
		r.waveActive = true
		r.waveResolveAt = now + r.waveGaOffset
	}
}

// buildWave loads the connection matrix: for every read-port row and every
// reachable column, the oldest eligible packet that can move there this
// wave. Each packet is assigned to a single read port (the pair
// synchronizes), and all nominated packets are locked until the wave
// resolves — the bookkeeping cost the paper cites for PIM1/WFA (up to 54
// in-flight nominations versus SPAA's 16).
func (r *Router) buildWave(now sim.Ticks) bool {
	r.matrix.Reset()
	if !r.holdsPackets() {
		return false
	}
	free := r.freeOutputs(now + r.waveGaOffset)
	any := false
	s := &r.slab
	for in := ports.In(0); in < ports.NumIn; in++ {
		for w := r.occ[in]; w != 0; w &= w - 1 {
			q := &r.queues[in][bits.TrailingZeros32(w)]
			limit := q.Len()
			if limit > r.cfg.Window {
				limit = r.cfg.Window
			}
			for i := 0; i < limit; i++ {
				pk := q.At(i)
				r.markOld(pk, now)
				meta := s.meta[pk]
				if meta.flags&pkNominated != 0 || s.eligibleAt[pk] > now {
					continue
				}
				if r.draining && meta.flags&pkOld == 0 {
					continue
				}
				if meta.outs&free == 0 {
					continue // every output it could use is busy
				}
				r.moves = r.readyMoves(pk, free, r.moves[:0])
				if len(r.moves) == 0 {
					continue
				}
				row := r.assignRow(in, r.moves, s.pkt[pk].ID)
				for _, mv := range r.moves {
					if mv.row != row {
						continue
					}
					cell := r.matrix.At(row, int(mv.out))
					age := int64(s.headerArrive[pk])
					if cell.Valid && !(age < cell.Age || (age == cell.Age && s.pkt[pk].ID < cell.Key)) {
						continue
					}
					r.matrix.Set(row, int(mv.out), age, s.pkt[pk].ID, 0)
					r.waveCells[row][mv.out] = waveCell{pk: pk, targetCh: mv.targetCh, local: mv.local}
					any = true
				}
			}
		}
	}
	if !any {
		return false
	}
	// Lock every packet that made it into a cell, walking the matrix's
	// row validity words instead of rescanning every cell.
	for row := 0; row < ports.NumRows; row++ {
		for w := r.matrix.RowMask(row); w != 0; w &= w - 1 {
			col := bits.TrailingZeros64(w)
			pk := r.waveCells[row][col].pk
			meta := &s.meta[pk]
			meta.flags |= pkNominated
			r.Counters.Nominations++
			if f := r.flight; f != nil {
				f.Record(now, obs.FlightNominate, s.pkt[pk].ID, meta.in, meta.ch, ports.Out(col))
			}
		}
	}
	return true
}

// assignRow picks the single read-port row a packet nominates through: the
// one whose crossbar connections cover more of the packet's ready moves,
// with ties broken by packet ID.
func (r *Router) assignRow(in ports.In, moves []move, id uint64) int {
	row0, row1 := ports.Row(in, 0), ports.Row(in, 1)
	c0, c1 := 0, 0
	for _, mv := range moves {
		switch mv.row {
		case row0:
			c0++
		case row1:
			c1++
		}
	}
	switch {
	case c0 == 0:
		return row1
	case c1 == 0:
		return row0
	case c0 > c1:
		return row0
	case c1 > c0:
		return row1
	case id%2 == 0:
		return row0
	default:
		return row1
	}
}

func (r *Router) resolveWave(now sim.Ticks) {
	grants := r.arb.Arbitrate(r.matrix)
	if r.oracle != nil {
		r.oracle.WaveResolve(r, now, r.matrix, grants)
	}
	for _, g := range grants {
		cell := r.waveCells[g.Row][g.Col]
		op := r.outputs[ports.Out(g.Col)]
		valid := op.freeForGrant(now, r.postArbTicks) &&
			(cell.local || (op.credits != nil && op.credits.Available(cell.targetCh)))
		if !valid || cell.pk < 0 || r.slab.meta[cell.pk].flags&pkNominated == 0 {
			if m := r.metrics; m != nil && !valid && cell.pk >= 0 {
				if !op.freeForGrant(now, r.postArbTicks) {
					m.Stalls++
				} else {
					m.CreditWaits++
				}
				m.Arb.NomFailures++
			}
			continue
		}
		r.dispatch(cell.pk, ports.Out(g.Col), cell.targetCh, cell.local, now)
	}
	// Unlock every nominated packet that was not dispatched; the row
	// validity words name exactly the cells the wave populated.
	for row := 0; row < ports.NumRows; row++ {
		for w := r.matrix.RowMask(row); w != 0; w &= w - 1 {
			col := bits.TrailingZeros64(w)
			if pk := r.waveCells[row][col].pk; pk >= 0 && r.slab.meta[pk].flags&pkNominated != 0 {
				r.reset(pk, now)
			}
			r.waveCells[row][col] = waveCell{pk: -1}
		}
	}
	r.waveActive = false
}

// ---- common ----

func (r *Router) markOld(pk int32, now sim.Ticks) {
	s := &r.slab
	if s.meta[pk].flags&pkOld == 0 && now-s.headerArrive[pk] >= r.ageTicks {
		s.meta[pk].flags |= pkOld
		r.oldCount++
		if !r.draining && r.oldCount > r.cfg.AntiStarvationThreshold {
			r.draining = true
			r.Counters.DrainEntries++
		}
	}
}

// touchVC makes ch the most recently selected of in's channels.
func (r *Router) touchVC(in ports.In, ch vc.Channel) {
	r.lruClock++
	r.lruStamp[in][ch] = r.lruClock
}

// dispatch commits a grant: the packet leaves its input buffer (returning
// the upstream credit), the output port goes busy for the packet's length,
// and the packet is handed to the link or the local sink. A grant at tick
// g puts the header on the pin at g + PostArb cycles.
func (r *Router) dispatch(pk int32, out ports.Out, targetCh vc.Channel, local bool, now sim.Ticks) {
	// The granted packet leaves the input buffer; losers of this GA round
	// were already reset. A successful selection is what advances the
	// input port's least-recently-selected virtual channel order.
	s := &r.slab
	meta := &s.meta[pk]
	meta.flags &^= pkNominated
	in, ch := meta.in, meta.ch
	r.touchVC(in, ch)
	q := &r.queues[in][ch]
	if !q.Remove(pk) {
		panic("router: removing packet not in queue")
	}
	if q.Len() == 0 {
		r.occ[in] &^= 1 << ch
	}
	if m := r.metrics; m != nil {
		m.QueueDelta(in, ch, -1, now)
	}
	if meta.flags&pkOld != 0 {
		meta.flags &^= pkOld
		r.oldCount--
		if r.oldCount == 0 {
			r.draining = false
		}
	}
	if s.upstream[pk] != nil {
		s.upstream[pk].Release(ch)
	}

	p := s.pkt[pk]
	tailArrive := s.tailArrive[pk]
	r.slab.release(pk)
	if f := r.flight; f != nil {
		f.Record(now, obs.FlightGrant, p.ID, in, ch, out)
	}

	op := r.outputs[out]
	headerDepart := now + r.postArbTicks
	flits := sim.Ticks(p.Flits)
	if local {
		op.busyUntil = headerDepart + flits*r.cfg.RouterPeriod
		deliveredAt := headerDepart + (flits-1)*r.cfg.RouterPeriod
		if tailArrive > deliveredAt {
			deliveredAt = tailArrive
		}
		r.Counters.DeliveredLocal++
		if op.deliver == nil {
			panic(fmt.Sprintf("router %d: local port %v not connected", r.node, out))
		}
		op.deliver(p, deliveredAt)
	} else {
		op.credits.Reserve(targetCh)
		op.busyUntil = headerDepart + flits*r.cfg.LinkPeriod
		p.Hops++
		if op.send == nil {
			panic(fmt.Sprintf("router %d: network port %v not connected", r.node, out))
		}
		op.send(p, targetCh, headerDepart, op.credits)
	}
	r.Counters.Grants++
}
