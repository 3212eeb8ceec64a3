package router

import (
	"fmt"
	"math"
	"math/bits"

	"alpha21364/internal/core"
	"alpha21364/internal/packet"
	"alpha21364/internal/ports"
	"alpha21364/internal/sim"
	"alpha21364/internal/topology"
	"alpha21364/internal/vc"
)

// never is a tick no run reaches: the aging bound of a router whose
// windows hold no packet that can still turn old.
const never sim.Ticks = math.MaxInt64

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

	// Packet state lives in a slab of records; the per-(input port,
	// channel) queues are fixed-capacity index rings over it, each owning
	// its span of one block of 16-bit handles New allocates, and the remaining
	// per-input-port state is flattened into router-level arrays so
	// arbitration scans walk contiguous memory.
	slab    pkSlab
	handles []uint16
	queues  [ports.NumIn][vc.NumChannels]vc.Ring
	// occ[in] is the occupancy index over in's rings: bit ch is set
	// exactly when queues[in][ch] is non-empty. addPacket's Push and
	// dispatch's Remove are the only ring mutations, and each updates
	// it, so scans visit the few occupied rings instead of all 152.
	// occIns is the index one level up: bit in is set exactly when
	// occ[in] != 0, so scans walk only the occupied inputs.
	occ    [ports.NumIn]uint32
	occIns uint8
	// winOuts[in][ch] is the window summary of ring (in, ch): the union
	// of pkMeta.outs over its first cfg.Window packets, the only ones a
	// scan visits. oldAt is the aging bound: no window packet that is not
	// yet old reaches AntiStarvationAge before it, so until then a visit
	// cannot colour a packet (markOld) and a scan drops every ring whose
	// summary misses its free outputs (scanRings). Both are kept exact at
	// the two ring mutations: addPacket's Push and dispatch's Remove
	// (refreshWindow) lower oldAt for the packet that enters a window,
	// and a scan that runs at or past the bound recomputes it
	// (recomputeOldAt).
	winOuts [ports.NumIn][vc.NumChannels]ports.OutMask
	oldAt   sim.Ticks
	// lruStamp[in][ch] is when in last selected ch, on the per-router
	// lruClock: ascending stamp order is the least-recently-selected
	// order over in's virtual channels. The 21364's input arbiter
	// "selects the oldest packet ... from the least-recently selected
	// virtual channel" (§3). New stamps channel ch with ch, so channels
	// never selected come first, in channel order; dispatch (touchVC)
	// is the only writer.
	lruStamp [ports.NumIn][vc.NumChannels]uint64
	lruClock uint64
	// credits holds the router's eight credit pools by value, each filled
	// by New from one table of the 19 channel capacities. Network output
	// ports are 0–3 and local input ports 4–7, so credits[out] is network
	// output out's view of its neighbour's input buffer
	// (outputs[out].credits points at it once ConnectNetwork wires the
	// port), and credits[in] is local input in's injection pool (the
	// processor's view of the buffer's free space). Network inputs have
	// no pool here: their credits live at the upstream router's output.
	credits [ports.NumIn]vc.Credits

	outputs [ports.NumOut]outputPort
	// busyUntil[out] is when output out finishes transmitting its current
	// packet; re-arbitration is possible once all flits are delivered
	// (§2.1). dispatch is the only writer.
	busyUntil [ports.NumOut]sim.Ticks
	// busyOuts is the busy-output mask: every output outside it is free at
	// the last LA threshold (the grant tick plus postArbTicks, see outFree),
	// and busyNext is at or below the earliest busyUntil inside it. dispatch
	// adds its output and lowers busyNext; freeOutputs rescans the busy bits
	// only once a threshold reaches busyNext. This relies on a router's LA
	// thresholds never decreasing: SPAA's are now+gaOffset+postArb and a
	// wave's now+waveGaOffset+postArb, so an output free at one threshold
	// stays free at every later one until a dispatch makes it busy again.
	busyOuts ports.OutMask
	busyNext sim.Ticks

	// wave is true for the matrix-wave algorithms (PIM1/WFA), false for
	// SPAA's per-cycle nominations; fixed by New.
	wave bool

	// SPAA pipeline state. noms is the FIFO of in-flight nominations,
	// ordered by resolveAt; New gives it its bound as capacity: an LA
	// stage nominates at most once per input port, and only the stages
	// of the last gaOffset ticks are unresolved, at most
	// ceil(gaOffset / LA interval) of them (16 nominations by default,
	// 40 under ScalePipeline).
	policy  core.SelectPolicy
	noms    []nomination
	dirPref [ports.NumIn]uint8
	nextLA  sim.Ticks

	// Wave (PIM1/WFA) pipeline state.
	arb           core.Arbiter
	matrix        *core.Matrix
	waveCells     [ports.NumRows][ports.NumOut]waveCell
	waveActive    bool
	waveResolveAt sim.Ticks
	nextWaveAt    sim.Ticks
	// waveRows marks the matrix rows the current wave filled: buildWave
	// sets a row's bit when it fills a cell there, and the lock, unlock
	// and clear loops visit only those rows.
	waveRows uint16

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

	// watch, when non-nil, observes the pipeline: the arbitration oracle,
	// telemetry counters and flight recorder (see watch.go).
	watch *watch

	// Scratch of fixed size. A router ticks every cycle, so a GA round
	// resolves one LA stage's nominations, at most one per input port,
	// and an output's candidates fit gaRows, gaNet and gaIdx; readyMoves
	// returns at most two moves (two productive directions, or one local
	// or escape hop).
	gaRows [ports.NumIn]int
	gaNet  [ports.NumIn]bool
	gaIdx  [ports.NumIn]int
	moves  [2]move
}

// New builds a router for the given node of the torus.
func New(cfg Config, node topology.Node, torus topology.Torus) (*Router, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// The router buffers at most blockLen packets, one per ring entry, so
	// its slab never hands out a handle of blockLen or more: every handle
	// fits a ring's 16-bit entries when the block fits its 16-bit offsets.
	blockLen := int(ports.NumIn) * cfg.Buffers.Total()
	if blockLen > vc.MaxRingBlock {
		return nil, fmt.Errorf("router: %d packet buffers per input port need %d ring handles, more than the %d a ring header addresses",
			cfg.Buffers.Total(), blockLen, vc.MaxRingBlock)
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
		oldAt:        never,
		busyNext:     never,
	}
	waveGa := cfg.ArbCycles - 1
	if cfg.InitInterval < waveGa {
		waveGa = cfg.InitInterval
	}
	r.waveGaOffset = sim.Ticks(waveGa) * cfg.RouterPeriod
	// Every ring owns a span of one handle block, exactly its channel's
	// capacity long, so no ring can reach into its neighbour.
	var caps [vc.NumChannels]int
	for ch := range caps {
		caps[ch] = cfg.Buffers.Capacity(vc.Channel(ch))
	}
	r.handles = make([]uint16, blockLen)
	off := 0
	for in := ports.In(0); in < ports.NumIn; in++ {
		for ch, c := range caps {
			r.queues[in][ch].Init(off, c)
			off += c
		}
		for ch := range r.lruStamp[in] {
			r.lruStamp[in][ch] = uint64(ch)
		}
		for out := ports.Out(0); out < ports.NumOut; out++ {
			r.rowOf[in][out] = int8(rowFor(cfg.Conn, in, out))
		}
		r.credits[in].Init(&caps)
	}
	for row := range r.waveCells {
		for col := range r.waveCells[row] {
			r.waveCells[row][col].pk = -1
		}
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
	r.slab.grow()
	switch cfg.Kind {
	case core.KindSPAABase, core.KindSPAARotary:
		stages := (cfg.ArbCycles - 1 + cfg.InitInterval - 1) / cfg.InitInterval
		r.noms = make([]nomination, 0, stages*int(ports.NumIn))
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
		core.Reserve(r.arb, r.matrix)
	}
	return r, nil
}

// Node returns the router's torus position.
func (r *Router) Node() topology.Node { return r.node }

// Config returns the router's configuration.
func (r *Router) Config() Config { return r.cfg }

// ConnectNetwork wires a torus output port: send carries every packet
// the port dispatches, and the port's credit pool, which OutputCredits
// returns, tracks the neighbor input buffer at the other end.
func (r *Router) ConnectNetwork(out ports.Out, send Sender) {
	if !out.IsNetwork() {
		panic(fmt.Sprintf("router: %v is not a network port", out))
	}
	r.outputs[out].send = send
	r.outputs[out].credits = &r.credits[out]
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
	rec := &r.slab.recs[idx]
	*rec = pkRec{
		meta:         pkMeta{ch: ch, in: in, outs: r.candidateOuts(p, in)},
		eligibleAt:   eligibleAt,
		headerArrive: headerArrive,
		pkt:          p,
		tailArrive:   tailArrive,
		upstream:     upstream,
	}
	q := &r.queues[in][ch]
	q.Push(r.handles, uint16(idx))
	r.occ[in] |= 1 << ch
	r.occIns |= 1 << in
	if q.Len() <= r.cfg.Window {
		r.winOuts[in][ch] |= rec.meta.outs
		r.lowerOldAt(rec)
	}
	if w := r.watch; w != nil {
		w.buffered(rec)
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
	feeder := &r.credits[in]
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
	return r.credits[in].Free(r.injectionChannel(&p))
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
	if r.queues[in][targetCh].Full() {
		panic(fmt.Sprintf("router %d: buffer overflow on %v/%v — credit accounting broken",
			r.node, in, targetCh))
	}
	r.addPacket(p, in, targetCh,
		headerArrive,
		headerArrive+sim.Ticks(p.Flits-1)*r.cfg.LinkPeriod,
		headerArrive+sim.Ticks(r.cfg.PreArbNetwork)*r.cfg.RouterPeriod,
		creditHome)
	r.Counters.Arrived++
}

// Buffered returns the number of packets buffered at the router.
func (r *Router) Buffered() int {
	n := 0
	for ins := r.occIns; ins != 0; ins &= ins - 1 {
		in := bits.TrailingZeros8(ins)
		for w := r.occ[in]; w != 0; w &= w - 1 {
			n += r.queues[in][bits.TrailingZeros32(w)].Len()
		}
	}
	return n
}

// holdsPackets reports whether any input ring is non-empty.
func (r *Router) holdsPackets() bool { return r.occIns != 0 }

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
	aging := now >= r.oldAt
	for ins := r.occIns; ins != 0; ins &= ins - 1 {
		in := ports.In(bits.TrailingZeros8(ins))
		rings := r.scanRings(in, free, aging)
		if rings == 0 {
			continue
		}
		pk, mv, ok := r.findNomination(in, rings, now, free)
		if !ok {
			continue
		}
		rec := &r.slab.recs[pk]
		rec.meta.flags |= pkNominated
		r.dirPref[in]++
		if len(r.noms) == cap(r.noms) {
			panic("router: nomination FIFO beyond its bound")
		}
		r.noms = append(r.noms, nomination{
			pk: pk, row: mv.row, out: mv.out, targetCh: mv.targetCh,
			local: mv.local, resolveAt: gaTick,
		})
		r.Counters.Nominations++
		if w := r.watch; w != nil {
			w.nominated(r, now, rec, mv.out, &r.noms[len(r.noms)-1])
		}
	}
	if aging {
		r.recomputeOldAt()
	}
}

// findNomination implements the 21364 input port arbiter: the oldest
// packet satisfying the basic constraints from the least-recently selected
// virtual channel (§3). rings is the set of in's rings to visit (see
// scanRings) and free the LA stage's free-for-grant output set.
func (r *Router) findNomination(in ports.In, rings uint32, now sim.Ticks, free ports.OutMask) (int32, move, bool) {
	s, handles := &r.slab, r.handles
	for rings != 0 {
		ch := r.leastRecent(in, rings)
		rings &^= 1 << ch
		q := &r.queues[in][ch]
		limit := q.Len()
		if limit > r.cfg.Window {
			limit = r.cfg.Window
		}
		best := int32(-1)
		var bestMove move
		for i := 0; i < limit; i++ {
			pk := int32(q.At(handles, i))
			rec := &s.recs[pk]
			r.markOld(rec, now)
			meta := rec.meta
			if meta.flags&pkNominated != 0 || rec.eligibleAt > now {
				continue
			}
			if r.draining && meta.flags&pkOld == 0 {
				continue
			}
			if best >= 0 && !olderThan(rec, &s.recs[best]) {
				continue
			}
			if meta.outs&free == 0 {
				continue // every output it could use is busy
			}
			moves := r.readyMoves(pk, free, r.moves[:0])
			if len(moves) == 0 {
				continue
			}
			best, bestMove = pk, moves[0]
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
func olderThan(a, b *pkRec) bool {
	if a.headerArrive != b.headerArrive {
		return a.headerArrive < b.headerArrive
	}
	return a.pkt.ID < b.pkt.ID
}

// resolveSPAA is the GA stage: for each output port with due nominations,
// the grant policy picks a winner among still-valid requests; the rest are
// reset for re-nomination (SPAA step 3).
func (r *Router) resolveSPAA(due []nomination, now sim.Ticks) {
	var outs ports.OutMask
	for i := range due {
		outs = outs.With(due[i].out)
	}
	for ; outs != 0; outs &= outs - 1 {
		out := ports.Out(bits.TrailingZeros8(uint8(outs)))
		k := 0 // candidates in gaRows, gaNet and gaIdx
		credits := r.outputs[out].credits
		for i := range due {
			n := &due[i]
			if n.out != out {
				continue
			}
			valid := r.outFree(out, now) &&
				(n.local || (credits != nil && credits.Available(n.targetCh)))
			if !valid {
				if w := r.watch; w != nil {
					w.failed(!r.outFree(out, now))
				}
				r.reset(&r.slab.recs[n.pk], now)
				n.pk = -1
				continue
			}
			r.gaRows[k] = n.row
			r.gaNet[k] = r.slab.recs[n.pk].meta.in.IsNetwork()
			r.gaIdx[k] = i
			k++
		}
		if k == 0 {
			continue
		}
		win := r.policy.Select(int(out), r.gaRows[:k], r.gaNet[:k])
		if w := r.watch; w != nil {
			n := &due[r.gaIdx[win]]
			w.selected(k, &r.slab.recs[n.pk], n)
		}
		for c, idx := range r.gaIdx[:k] {
			n := &due[idx]
			if c == win {
				r.dispatch(n.pk, n.out, n.targetCh, n.local, now)
			} else {
				r.reset(&r.slab.recs[n.pk], now)
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
	if w := r.watch; w != nil {
		w.resolved(r, now)
	}
}

// reset returns packet rec, whose nomination failed or lost, to the
// buffered state.
func (r *Router) reset(rec *pkRec, now sim.Ticks) {
	rec.meta.flags &^= pkNominated
	r.Counters.Collisions++
	if w := r.watch; w != nil {
		w.reset(now, rec)
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
// in-flight nominations versus SPAA's 16). The matrix is empty on entry:
// resolveWave clears the cells of every wave it resolves.
func (r *Router) buildWave(now sim.Ticks) bool {
	if !r.holdsPackets() {
		return false
	}
	free := r.freeOutputs(now + r.waveGaOffset)
	aging := now >= r.oldAt
	s, handles := &r.slab, r.handles
	for ins := r.occIns; ins != 0; ins &= ins - 1 {
		in := ports.In(bits.TrailingZeros8(ins))
		for w := r.scanRings(in, free, aging); w != 0; w &= w - 1 {
			q := &r.queues[in][bits.TrailingZeros32(w)]
			limit := q.Len()
			if limit > r.cfg.Window {
				limit = r.cfg.Window
			}
			for i := 0; i < limit; i++ {
				pk := int32(q.At(handles, i))
				rec := &s.recs[pk]
				r.markOld(rec, now)
				meta := rec.meta
				if meta.flags&pkNominated != 0 || rec.eligibleAt > now {
					continue
				}
				if r.draining && meta.flags&pkOld == 0 {
					continue
				}
				if meta.outs&free == 0 {
					continue // every output it could use is busy
				}
				moves := r.readyMoves(pk, free, r.moves[:0])
				if len(moves) == 0 {
					continue
				}
				id := rec.pkt.ID
				row := r.assignRow(in, moves, id)
				for _, mv := range moves {
					if mv.row != row {
						continue
					}
					age := int64(rec.headerArrive)
					if r.matrix.RowMask(row)&(1<<mv.out) != 0 {
						cell := r.matrix.At(row, int(mv.out))
						if !(age < cell.Age || (age == cell.Age && id < cell.Key)) {
							continue
						}
					}
					r.matrix.Set(row, int(mv.out), age, id, 0)
					r.waveCells[row][mv.out] = waveCell{pk: pk, targetCh: mv.targetCh, local: mv.local}
					r.waveRows |= 1 << row
				}
			}
		}
	}
	if aging {
		r.recomputeOldAt()
	}
	if r.waveRows == 0 {
		return false
	}
	// Lock every packet that made it into a cell, walking the filled rows'
	// validity words instead of rescanning every cell.
	for rows := r.waveRows; rows != 0; rows &= rows - 1 {
		row := bits.TrailingZeros16(rows)
		for w := r.matrix.RowMask(row); w != 0; w &= w - 1 {
			col := bits.TrailingZeros64(w)
			rec := &s.recs[r.waveCells[row][col].pk]
			rec.meta.flags |= pkNominated
			r.Counters.Nominations++
			if w := r.watch; w != nil {
				w.nominated(r, now, rec, ports.Out(col), nil)
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
	if w := r.watch; w != nil {
		w.waveArbitrated(r, now, r.matrix, grants)
	}
	for _, g := range grants {
		cell := r.waveCells[g.Row][g.Col]
		out := ports.Out(g.Col)
		credits := r.outputs[out].credits
		valid := r.outFree(out, now) &&
			(cell.local || (credits != nil && credits.Available(cell.targetCh)))
		if !valid || cell.pk < 0 || r.slab.recs[cell.pk].meta.flags&pkNominated == 0 {
			if w := r.watch; w != nil && !valid && cell.pk >= 0 {
				w.failed(!r.outFree(out, now))
			}
			continue
		}
		r.dispatch(cell.pk, out, cell.targetCh, cell.local, now)
	}
	// Unlock every nominated packet that was not dispatched; the filled
	// rows' validity words name exactly the cells the wave populated.
	// Clearing each of those cells here leaves the matrix empty for the
	// next build.
	for rows := r.waveRows; rows != 0; rows &= rows - 1 {
		row := bits.TrailingZeros16(rows)
		for w := r.matrix.RowMask(row); w != 0; w &= w - 1 {
			col := bits.TrailingZeros64(w)
			if pk := r.waveCells[row][col].pk; pk >= 0 && r.slab.recs[pk].meta.flags&pkNominated != 0 {
				r.reset(&r.slab.recs[pk], now)
			}
			r.waveCells[row][col] = waveCell{pk: -1}
			r.matrix.Clear(row, col)
		}
	}
	r.waveRows = 0
	r.waveActive = false
}

// ---- common ----

// scanRings returns the rings of input in that a scan with free-output
// set free must visit. While aging (at or past oldAt) a visit may colour
// a packet old, so that is every occupied ring; before the bound, a ring
// whose window summary misses free holds no packet the scan could pick.
func (r *Router) scanRings(in ports.In, free ports.OutMask, aging bool) uint32 {
	rings := r.occ[in]
	if aging {
		return rings
	}
	for w := rings; w != 0; w &= w - 1 {
		if ch := bits.TrailingZeros32(w); r.winOuts[in][ch]&free == 0 {
			rings &^= 1 << ch
		}
	}
	return rings
}

// lowerOldAt keeps the aging bound at or below the tick at which window
// packet rec turns old.
func (r *Router) lowerOldAt(rec *pkRec) {
	if at := rec.headerArrive + r.ageTicks; at < r.oldAt {
		r.oldAt = at
	}
}

// refreshWindow recomputes ring (in, ch)'s window summary after a
// removal from its window, and lowers the aging bound for the packet the
// removal moved into the window, if any.
func (r *Router) refreshWindow(in ports.In, ch vc.Channel) {
	q := &r.queues[in][ch]
	n := q.Len()
	if n >= r.cfg.Window {
		n = r.cfg.Window
		r.lowerOldAt(&r.slab.recs[q.At(r.handles, n-1)])
	}
	var outs ports.OutMask
	for i := 0; i < n; i++ {
		outs |= r.slab.recs[q.At(r.handles, i)].meta.outs
	}
	r.winOuts[in][ch] = outs
}

// recomputeOldAt sets the aging bound from the window packets that are
// not yet old, after a scan at or past it has coloured those it reached.
func (r *Router) recomputeOldAt() {
	r.oldAt = never
	s := &r.slab
	for ins := r.occIns; ins != 0; ins &= ins - 1 {
		in := bits.TrailingZeros8(ins)
		for w := r.occ[in]; w != 0; w &= w - 1 {
			q := &r.queues[in][bits.TrailingZeros32(w)]
			n := min(q.Len(), r.cfg.Window)
			for i := 0; i < n; i++ {
				if rec := &s.recs[q.At(r.handles, i)]; rec.meta.flags&pkOld == 0 {
					r.lowerOldAt(rec)
				}
			}
		}
	}
}

func (r *Router) markOld(rec *pkRec, now sim.Ticks) {
	if rec.meta.flags&pkOld == 0 && now-rec.headerArrive >= r.ageTicks {
		rec.meta.flags |= pkOld
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
	rec := &r.slab.recs[pk]
	rec.meta.flags &^= pkNominated
	in, ch := rec.meta.in, rec.meta.ch
	r.touchVC(in, ch)
	q := &r.queues[in][ch]
	if !q.Remove(r.handles, uint16(pk)) {
		panic("router: removing packet not in queue")
	}
	if q.Len() == 0 {
		if r.occ[in] &^= 1 << ch; r.occ[in] == 0 {
			r.occIns &^= 1 << in
		}
	}
	r.refreshWindow(in, ch)
	if rec.meta.flags&pkOld != 0 {
		rec.meta.flags &^= pkOld
		r.oldCount--
		if r.oldCount == 0 {
			r.draining = false
		}
	}
	if rec.upstream != nil {
		rec.upstream.Release(ch)
	}
	if w := r.watch; w != nil {
		w.granted(now, rec, out)
	}

	p := rec.pkt
	tailArrive := rec.tailArrive
	r.slab.release(pk)

	op := &r.outputs[out]
	headerDepart := now + r.postArbTicks
	flits := sim.Ticks(p.Flits)
	if local {
		r.busyUntil[out] = headerDepart + flits*r.cfg.RouterPeriod
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
		r.busyUntil[out] = headerDepart + flits*r.cfg.LinkPeriod
		p.Hops++
		if op.send == nil {
			panic(fmt.Sprintf("router %d: network port %v not connected", r.node, out))
		}
		op.send.Send(p, targetCh, headerDepart, op.credits)
	}
	r.busyOuts = r.busyOuts.With(out)
	r.busyNext = min(r.busyNext, r.busyUntil[out])
	r.Counters.Grants++
}
