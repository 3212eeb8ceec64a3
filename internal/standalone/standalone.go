// Package standalone implements the paper's first performance model (§4.1):
// a single 21364 router evaluated for pure matching capability, "just like
// a cache simulator would allow one to evaluate the cache miss ratio
// without any timing information". Every algorithm executes in one cycle;
// what is measured is arbitration matches per cycle.
//
// The model reproduces the assumptions behind Figures 8 and 9:
//
//   - all arbitration algorithms take one cycle to execute;
//   - output ports are free (Figure 8) or occupied with probability p
//     (Figure 9, sweeping p over {0, 0.25, 0.5, 0.75});
//   - 50% of traffic is local, destined for the memory-controller and I/O
//     output ports; the rest is destined uniformly for the network ports;
//   - matches are averaged across 1000 iterations of the algorithm;
//   - all algorithms obey the 21364's structural constraints (connection
//     matrix, adaptive routing's at-most-two output choices).
package standalone

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"alpha21364/internal/core"
	"alpha21364/internal/ports"
	"alpha21364/internal/sim"
)

// Config parameterizes a standalone run.
type Config struct {
	Seed      uint64
	Cycles    int     // iterations to average over (paper: 1000)
	Load      float64 // packet arrival probability per input port per cycle
	Occupancy float64 // probability an output port is busy in a cycle
	// LocalFraction is the share of traffic destined for the local
	// (memory-controller and I/O) output ports. Paper: 0.5.
	LocalFraction float64
	// DualDirProb is the probability that a network-destined packet has two
	// candidate output ports (adaptive routing in the minimal rectangle
	// permits at most two; in a torus, packets with offsets in both
	// dimensions have two).
	DualDirProb float64
	// QueueCap bounds each input port's queue, like the 316-packet input
	// buffer. Arrivals beyond the cap are dropped (and counted).
	QueueCap int
	// Window is how many queued packets per input port the arbiters
	// consider. The 21364's input port arbiters "can pick packets out of
	// all the buffers" (§3), so the default window equals the queue
	// capacity; smaller windows are exposed for picker-depth ablations.
	Window int
	// Conn is the crossbar connection matrix.
	Conn ports.ConnectionMatrix
}

// DefaultConfig returns the paper's standalone parameters at the given
// load.
func DefaultConfig(load float64) Config {
	return Config{
		Seed:          1,
		Cycles:        1000,
		Load:          load,
		Occupancy:     0,
		LocalFraction: 0.5,
		DualDirProb:   0.5,
		QueueCap:      316,
		Window:        316,
		Conn:          ports.DefaultConnectionMatrix(),
	}
}

// Result reports a standalone run.
type Result struct {
	Algorithm       string
	MatchesPerCycle float64
	OfferedPerCycle float64 // accepted arrivals per cycle
	DroppedPerCycle float64 // arrivals lost to full queues
	MeanQueueLen    float64 // time-averaged total queued packets
}

// spktQueue is one input port's queue. Its packets live in three linear
// arrays, one entry per packet: arrival cycle, key, and a destination
// byte holding the destination mask with the read-port row assignment in
// the spare high bit (NumOut = 7 destinations fit the low bits), so the
// matrix scans read one byte per packet, eight per word. A packet keeps
// its index from push to removal, so a grant can name it by index.
// Removing a packet zeroes its destination byte, leaving a hole: a hole
// has no destination bit, so every scan skips it and nothing shifts over
// it. The live packets and the holes between them lie in [head, tail),
// head on the oldest live packet or equal to tail; ages strictly increase
// from head to tail because a port takes at most one arrival per cycle.
// A push that finds the end of the arrays first compacts the queue,
// moving the live packets to the front, which changes their indexes.
//
// The window is the first window live packets, the ones the arbiters see;
// win is one past its youngest, so [head, win) holds exactly
// min(n, window) live packets.
type spktQueue struct {
	age []int64
	key []uint64
	dst []uint8

	head, tail, win, n int
	capacity, window   int
}

func (q *spktQueue) full() bool { return q.n == q.capacity }

// dests returns the destination mask of the packet at index i.
func (q *spktQueue) dests(i int) ports.OutMask { return ports.OutMask(q.dst[i] &^ rowBitFlag) }

// live reports whether index i holds a queued packet.
func (q *spktQueue) live(i int) bool { return i >= q.head && i < q.tail && q.dst[i] != 0 }

// push appends a packet whose destination byte is dst (never zero) and
// returns its index. compacted reports that the push first compacted the
// queue, which can change the index of every live packet.
func (q *spktQueue) push(age int64, key uint64, dst uint8) (i int, compacted bool) {
	if q.tail == len(q.dst) {
		q.compact()
		compacted = true
	}
	i = q.tail
	q.age[i], q.key[i], q.dst[i] = age, key, dst
	q.tail++
	q.n++
	if q.n <= q.window {
		q.win = q.tail
	}
	return i, compacted
}

// compact moves the live packets, in order, to the front of the arrays.
func (q *spktQueue) compact() {
	j := 0
	for i := q.head; i < q.tail; i++ {
		if q.dst[i] != 0 {
			q.age[j], q.key[j], q.dst[j] = q.age[i], q.key[i], q.dst[i]
			j++
		}
	}
	q.head, q.tail, q.win = 0, j, min(j, q.window)
}

// remove turns the live packet at index i into a hole. If the packet was
// in the window, the oldest packet behind the window joins it; remove
// returns that packet's index, or -1 when none joined.
func (q *spktQueue) remove(i int) (joined int) {
	q.dst[i] = 0
	q.n--
	joined = -1
	if i < q.win {
		for q.win < q.tail && q.dst[q.win] == 0 {
			q.win++
		}
		if q.win < q.tail {
			joined = q.win
			q.win++
		}
	}
	for q.head < q.tail && q.dst[q.head] == 0 {
		q.head++
	}
	return joined
}

// queueLen sizes each queue's arrays at 1.5 times QueueCap, so holes can
// fill half a full queue's length before a push compacts.
func queueLen(capacity int) int { return capacity + capacity/2 }

// handle is the matrix cell Payload naming the packet at index i of input
// port in's queue; remove reads it back from the grant.
func handle(in ports.In, i int) int32 { return int32(i<<3 | int(in)) }

// maxQueueLen is the longest queue array whose every index fits a handle.
const maxQueueLen = 1 << 28

// model is the single-router state.
type model struct {
	cfg    Config
	rng    *sim.RNG
	queues [ports.NumIn]spktQueue
	// matrix is the connection matrix every cycle arbitrates on. Unless
	// stale, it is the live all-outputs-free matrix: after every arrival
	// and every grant it equals a from-scratch build of the current
	// queues with no output busy, so a cycle with every output free
	// arbitrates on it directly. Each cell holds the oldest packet in the
	// window of its read-port row that wants the column, so an arrival or
	// a grant changes only the cells of one row. A cycle with a busy
	// output builds from scratch over it with those outputs masked. The
	// matrix is stale from the drain before such a cycle until the next
	// cycle with every output free rebuilds it; arrivals and grants skip
	// the upkeep meanwhile, so Figure 9's busy cycles cost one build each.
	// A compaction moves the indexes the cells' handles name, so it makes
	// the matrix stale too.
	matrix *core.Matrix
	stale  bool
	// localChoices and netChoices are each input port's legal local and
	// network output ports, precomputed from the (static) connection
	// matrix so destsFor draws without building the lists per arrival.
	localChoices [ports.NumIn][]ports.Out
	netChoices   [ports.NumIn][]ports.Out
	// rowMasks caches each input port's two read-port row connection
	// masks for the arrival-time row assignment and the live matrix.
	rowMasks [ports.NumIn][2]ports.OutMask
	// colCount[in][out] counts queued packets at input port in whose
	// destination set includes out, maintained incrementally on push and
	// drain; colMask[in] caches the mask of outs with a nonzero count.
	// build and the refill after a grant use the mask to shrink their
	// early-exit target to the columns that can actually still fill —
	// the residual queue of an effective arbiter is dominated by a few
	// contested columns, and without this bound the scan degenerates to
	// the full window.
	colCount [ports.NumIn][ports.NumOut]int32
	colMask  [ports.NumIn]ports.OutMask
	// queued is the total packets across all queues, maintained on push
	// and drain.
	queued  int
	nextKey uint64
}

// trafficCols returns the mask of columns with at least one queued
// packet at the port.
func (m *model) trafficCols(in ports.In) ports.OutMask {
	return m.colMask[in]
}

func (m *model) countDests(in ports.In, dests ports.OutMask, delta int32) {
	for d := dests; d != 0; d &= d - 1 {
		o := ports.Out(bits.TrailingZeros8(uint8(d)))
		m.colCount[in][o] += delta
		if m.colCount[in][o] > 0 {
			m.colMask[in] = m.colMask[in].With(o)
		} else {
			m.colMask[in] &^= 1 << uint(o)
		}
	}
}

func newModel(cfg Config) *model {
	n := queueLen(cfg.QueueCap)
	if n > maxQueueLen {
		panic(fmt.Sprintf("standalone: QueueCap %d is too large for a grant handle", cfg.QueueCap))
	}
	m := &model{cfg: cfg, rng: sim.NewRNG(cfg.Seed), matrix: core.NewRouterMatrix(), nextKey: 1}
	// Each array is one allocation the ports share, which keeps set-up
	// at three allocations for the queues.
	age := make([]int64, int(ports.NumIn)*n)
	key := make([]uint64, int(ports.NumIn)*n)
	dst := make([]uint8, int(ports.NumIn)*n)
	for in := ports.In(0); in < ports.NumIn; in++ {
		legal := cfg.Conn.LegalOuts(in)
		m.localChoices[in] = maskList(legal & ports.LocalOuts)
		m.netChoices[in] = maskList(legal & ports.NetworkOuts)
		m.rowMasks[in][0] = cfg.Conn[ports.Row(in, 0)]
		m.rowMasks[in][1] = cfg.Conn[ports.Row(in, 1)]
		lo, hi := int(in)*n, int(in+1)*n
		m.queues[in] = spktQueue{
			age: age[lo:hi:hi], key: key[lo:hi:hi], dst: dst[lo:hi:hi],
			capacity: cfg.QueueCap, window: max(cfg.Window, 0),
		}
	}
	return m
}

// rowBitFlag marks a row-1 assignment in a queue's destination byte.
const rowBitFlag = 0x80

// assignBit computes a packet's static read-port row with all outputs
// free: the row whose connection mask covers more of the packet's
// candidate outputs, ties broken by key parity — the same rule build
// applies, evaluated once at arrival.
func (m *model) assignBit(in ports.In, dests ports.OutMask, key uint64) uint8 {
	c0 := (dests & m.rowMasks[in][0]).Count()
	c1 := (dests & m.rowMasks[in][1]).Count()
	if c1 > c0 || (c1 == c0 && c0 != 0 && key%2 == 1) {
		return rowBitFlag
	}
	return 0
}

// arrive generates this cycle's arrivals.
func (m *model) arrive(cycle int64) (offered, dropped int) {
	for in := ports.In(0); in < ports.NumIn; in++ {
		if !m.rng.Bernoulli(m.cfg.Load) {
			continue
		}
		offered++
		q := &m.queues[in]
		if q.full() {
			dropped++
			continue
		}
		dests, key := m.destsFor(in), m.nextKey
		m.nextKey++
		i, compacted := q.push(cycle, key, uint8(dests)|m.assignBit(in, dests, key))
		if compacted {
			m.stale = true
			if testHookCompact != nil {
				testHookCompact()
			}
		}
		m.countDests(in, dests, 1)
		m.queued++
		if i < q.win && !m.stale {
			m.admit(in, i)
		}
	}
	return offered, dropped
}

// testHookCompact, when set, is called on every queue compaction.
var testHookCompact func()

// admit gives the packet at index i, the window's youngest, every
// still-open cell of its read-port row that it can use. Every other
// window packet is older, so an open cell is one that no older packet of
// the row wants, and a filled cell stays with its older holder.
func (m *model) admit(in ports.In, i int) {
	q := &m.queues[in]
	rp := int(q.dst[i] >> 7)
	row := ports.Row(in, rp)
	if open := q.dests(i) & m.rowMasks[in][rp] &^ ports.OutMask(m.matrix.RowMask(row)); open != 0 {
		m.matrix.SetMany(row, uint64(open), q.age[i], q.key[i], handle(in, i))
	}
}

// destsFor draws a destination set for a packet arriving on in, following
// the paper's 50% local / 50% uniformly-network rule and the adaptive
// routing limit of at most two candidate output ports.
func (m *model) destsFor(in ports.In) ports.OutMask {
	if m.rng.Bernoulli(m.cfg.LocalFraction) {
		choices := m.localChoices[in]
		return 1 << uint(choices[m.rng.Intn(len(choices))])
	}
	choices := m.netChoices[in]
	first := choices[m.rng.Intn(len(choices))]
	mask := ports.OutMask(1) << uint(first)
	if len(choices) > 1 && m.rng.Bernoulli(m.cfg.DualDirProb) {
		for {
			second := choices[m.rng.Intn(len(choices))]
			if second != first {
				return mask | 1<<uint(second)
			}
		}
	}
	return mask
}

func maskList(m ports.OutMask) []ports.Out {
	out := make([]ports.Out, 0, ports.NumOut)
	for o := ports.Out(0); o < ports.NumOut; o++ {
		if m.Has(o) {
			out = append(out, o)
		}
	}
	return out
}

// matrixFor returns the connection matrix for one arbitration pass. With
// every output free that is the live matrix, rebuilt first if a busy
// cycle left it stale; otherwise it is a from-scratch build with the busy
// outputs masked, which leaves the matrix stale.
func (m *model) matrixFor(busy ports.OutMask) *core.Matrix {
	if busy != 0 || m.stale {
		m.build(m.matrix, busy)
		m.stale = busy != 0
	}
	return m.matrix
}

// build fills mat for one arbitration pass. Each packet is assigned to
// exactly one of its input port's two read ports (the pairs synchronize
// so they never choose the same packet); within a row, each column's
// cell holds the oldest packet that can use it.
func (m *model) build(mat *core.Matrix, busy ports.OutMask) {
	mat.Reset()
	for in := ports.In(0); in < ports.NumIn; in++ {
		q := &m.queues[in]
		row0, row1 := ports.Row(in, 0), ports.Row(in, 1)
		mask0, mask1 := m.cfg.Conn[row0], m.cfg.Conn[row1]
		// Early-exit bound: arrivals are strictly age-ordered within a
		// port (one per cycle), so a later packet never replaces a cell an
		// earlier one set — every cell is written exactly once, by the
		// first (oldest) packet that can use it. need0/need1 track the
		// cells still open in each read-port row, restricted to columns
		// some queued packet actually wants (trafficCols): packets that
		// cannot contribute are skipped with two mask operations, and the
		// scan stops when nothing is left to fill. At saturation this cuts
		// the per-cycle work from the full 316-entry window times seven
		// columns to a handful of cell writes.
		traffic := m.trafficCols(in)
		need0 := mask0 &^ busy & traffic
		need1 := mask1 &^ busy & traffic
		// The window [head, win) is walked oldest-first through the
		// destination-byte array, eight packets per uint64 load: a chunk
		// with no byte intersecting the still-needed columns is skipped
		// with one AND, and a hole, with no destination bit, never
		// intersects. need0/need1 have no busy bits, so dests∩need ≠ 0 is
		// exactly the old avail∩need ≠ 0 entry test, and within a chunk
		// hits are taken lowest byte first — the same oldest-first order
		// as the scalar scan.
		for i, end := q.head, q.win; i < end && need0|need1 != 0; {
			if end-i >= 8 {
				w := binary.LittleEndian.Uint64(q.dst[i:])
				hits := w & (0x0101010101010101 * uint64(need0|need1))
				if hits == 0 {
					i += 8
					continue
				}
				i += bits.TrailingZeros64(hits) >> 3
			}
			avail := q.dests(i) &^ busy
			if avail&(need0|need1) == 0 {
				i++
				continue
			}
			// Assign the packet to the read port that covers more of its
			// candidate outputs; break ties by packet key.
			c0, c1 := (avail & mask0).Count(), (avail & mask1).Count()
			row, rowMask, need := row0, mask0, &need0
			switch {
			case c1 > c0:
				row, rowMask, need = row1, mask1, &need1
			case c1 == c0 && c0 == 0:
				i++
				continue
			case c1 == c0 && q.key[i]%2 == 1:
				row, rowMask, need = row1, mask1, &need1
			}
			// SetMany writes the whole contribution mask in one call,
			// updating the matrix's row validity word once.
			contrib := avail & rowMask & *need
			mat.SetMany(row, uint64(contrib), q.age[i], q.key[i], handle(in, i))
			*need &^= contrib
			i++
		}
	}
}

// fillRowFree fills the needed cells of one read-port row of the live
// matrix from the packets at indexes from through to-1 that are assigned
// to that row, oldest first. A chunk byte is a candidate only if it
// intersects the still-needed columns AND its stored row bit matches —
// both resolved word-parallel, eight packets per load, so the scan skips
// the other row's packets and the holes as cheaply as unwanted ones.
func (m *model) fillRowFree(in ports.In, row int, rowBit uint8, need ports.OutMask, from, to int) {
	const (
		low7 = 0x7f7f7f7f7f7f7f7f
		high = 0x8080808080808080
	)
	q, mat := &m.queues[in], m.matrix
	for i := from; i < to && need != 0; {
		if to-i >= 8 {
			w := binary.LittleEndian.Uint64(q.dst[i:])
			x := w & (0x0101010101010101 * uint64(need))
			// nz marks (in bit 7) each byte with any needed column;
			// the byte's own bit 7 is the stored row assignment.
			nz := (((x & low7) + low7) | x) & high
			cand := nz & (w ^ high)
			if rowBit != 0 {
				cand = nz & w & high
			}
			if cand == 0 {
				i += 8
				continue
			}
			i += bits.TrailingZeros64(cand) >> 3
		} else if q.dst[i]&rowBitFlag != rowBit || ports.OutMask(q.dst[i])&need == 0 {
			i++
			continue
		}
		contrib := q.dests(i) & need
		mat.SetMany(row, uint64(contrib), q.age[i], q.key[i], handle(in, i))
		need &^= contrib
		i++
	}
}

// drain removes granted packets from their queues, returning how many
// grants named a packet that was not queued — always zero for a legal
// matching; the checked run mode treats nonzero as a violation.
func (m *model) drain(grants []core.Grant) int {
	missing := 0
	for _, g := range grants {
		if !m.remove(g.Cell.Payload, g.Cell.Age, g.Cell.Key) {
			missing++
		}
	}
	return missing
}

// remove deletes the queued packet that handle h names, reporting whether
// h named one with the given age and key, and repairs the live matrix
// unless it is stale: the cells the packet held reopen and refill from
// the younger window packets of its row, and the packet that joins the
// window in its place, if any, takes the still-open cells of its own row.
func (m *model) remove(h int32, age int64, key uint64) bool {
	in, i := ports.In(h&7), int(h>>3)
	q := &m.queues[in]
	if !q.live(i) || q.age[i] != age || q.key[i] != key {
		return false
	}
	dests, rowBit := q.dests(i), q.dst[i]&rowBitFlag
	joined := q.remove(i)
	m.countDests(in, dests, -1)
	m.queued--
	if m.stale {
		return true
	}

	row := ports.Row(in, int(rowBit>>7))
	var held ports.OutMask
	for c := dests & ports.OutMask(m.matrix.RowMask(row)); c != 0; c &= c - 1 {
		o := bits.TrailingZeros8(uint8(c))
		if m.matrix.At(row, o).Key == key {
			m.matrix.Clear(row, o)
			held |= 1 << uint(o)
		}
	}
	if need := held & m.trafficCols(in); need != 0 {
		// Older packets of the row do not want the held columns, or the
		// packet would not have held them, so the scan starts after it.
		m.fillRowFree(in, row, rowBit, need, i+1, q.win)
	}
	if joined >= 0 {
		m.admit(in, joined)
	}
	return true
}

func (m *model) totalQueued() int { return m.queued }

// Run executes the standalone model for one of the paper's algorithms.
func Run(kind core.Kind, cfg Config) Result {
	return RunArbiter(core.New(kind, sim.NewRNG(cfg.Seed^0x9747b28c)), cfg)
}

// RunChecked is Run with the arbitration oracle enabled: every cycle's
// connection matrix must satisfy the builder invariants (Matrix.Validate),
// in every cycle with no busy output the live matrix must equal a
// from-scratch build of the same queues, and every grant set must be a
// legal matching over queued packets. The first violation aborts the run
// with an error. Arrival, occupancy, and arbiter RNG streams are
// identical to Run's, so a clean checked run measures exactly the same
// numbers.
func RunChecked(kind core.Kind, cfg Config) (Result, error) {
	return runArbiter(core.New(kind, sim.NewRNG(cfg.Seed^0x9747b28c)), cfg, true)
}

// RunArbiter executes the standalone model for a caller-constructed
// arbiter — custom PIM/iSLIP iteration counts, or user algorithms
// implementing core.Arbiter. The arbiter must not modify the matrix it
// is given: the model keeps it across cycles with every output free and
// repairs only the cells that arrivals and grants change. Each grant
// must carry its matrix cell unchanged: the cell's Payload is the
// model's handle for the packet, the queue index the grant removes, and
// a grant whose cell does not name a queued packet by handle, age and
// key removes nothing.
func RunArbiter(arb core.Arbiter, cfg Config) Result {
	res, _ := runArbiter(arb, cfg, false)
	return res
}

func runArbiter(arb core.Arbiter, cfg Config, check bool) (Result, error) {
	if cfg.Cycles <= 0 {
		panic("standalone: Cycles must be positive")
	}
	m := newModel(cfg)
	// Independent streams: arrivals and occupancy must not depend on the
	// algorithm's internal randomness, so identical seeds present identical
	// traffic to every algorithm.
	occRng := sim.NewRNG(cfg.Seed ^ 0x5bd1e995)

	var rebuilt *core.Matrix
	if check {
		rebuilt = core.NewRouterMatrix()
	}
	matches, offered, dropped, queued := 0, 0, 0, int64(0)
	busy := busyOutputs(occRng, cfg.Occupancy)
	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		o, d := m.arrive(int64(cycle))
		offered += o
		dropped += d
		mat := m.matrixFor(busy)
		if check {
			if busy == 0 {
				m.build(rebuilt, 0)
				if err := sameCells(mat, rebuilt); err != nil {
					return Result{}, fmt.Errorf("standalone: %s cycle %d: live matrix %w", arb.Name(), cycle, err)
				}
			}
			if err := mat.Validate(); err != nil {
				return Result{}, fmt.Errorf("standalone: %s cycle %d: %w", arb.Name(), cycle, err)
			}
		}
		grants := arb.Arbitrate(mat)
		if check {
			if err := core.CheckMatching(mat, grants); err != nil {
				return Result{}, fmt.Errorf("standalone: %s cycle %d: %w", arb.Name(), cycle, err)
			}
		}
		// The next cycle's busy outputs are drawn before this cycle's
		// drain, so the drain skips the live matrix's upkeep when the next
		// cycle builds its own. occRng feeds nothing else, so drawing a
		// cycle early changes no mask.
		if busy = busyOutputs(occRng, cfg.Occupancy); busy != 0 {
			m.stale = true
		}
		if missing := m.drain(grants); check && missing > 0 {
			return Result{}, fmt.Errorf("standalone: %s cycle %d: %d grant(s) named packets not in any queue",
				arb.Name(), cycle, missing)
		}
		matches += len(grants)
		queued += int64(m.totalQueued())
	}
	return Result{
		Algorithm:       arb.Name(),
		MatchesPerCycle: float64(matches) / float64(cfg.Cycles),
		OfferedPerCycle: float64(offered-dropped) / float64(cfg.Cycles),
		DroppedPerCycle: float64(dropped) / float64(cfg.Cycles),
		MeanQueueLen:    float64(queued) / float64(cfg.Cycles),
	}, nil
}

// busyOutputs draws one cycle's busy output ports, each busy with
// probability occupancy.
func busyOutputs(rng *sim.RNG, occupancy float64) ports.OutMask {
	var busy ports.OutMask
	for out := ports.Out(0); out < ports.NumOut; out++ {
		if rng.Bernoulli(occupancy) {
			busy = busy.With(out)
		}
	}
	return busy
}

// sameCells reports the first difference between got and want: a row's
// validity word, or the Age, Key or Payload of a valid cell. The column
// request words mirror the validity words, so they need no comparison.
func sameCells(got, want *core.Matrix) error {
	for r := 0; r < want.Rows; r++ {
		if g, w := got.RowMask(r), want.RowMask(r); g != w {
			return fmt.Errorf("row %d validity %#x, rebuild %#x", r, g, w)
		}
	}
	for r := 0; r < want.Rows; r++ {
		for v := want.RowMask(r); v != 0; v &= v - 1 {
			c := bits.TrailingZeros64(v)
			if g, w := got.At(r, c), want.At(r, c); g != w {
				return fmt.Errorf("cell (%d,%d) %+v, rebuild %+v", r, c, g, w)
			}
		}
	}
	return nil
}

// MCMSaturationLoad locates the load (arrival probability per input port)
// at which MCM's match rate saturates: the smallest swept load whose match
// rate reaches 98% of the match rate at full load. Figure 8's horizontal
// axis is expressed as a fraction of this load.
func MCMSaturationLoad(cfg Config) float64 {
	cfg.Load = 1.0
	plateau := Run(core.KindMCM, cfg).MatchesPerCycle
	for load := 0.05; load < 1.0; load += 0.05 {
		cfg.Load = load
		if Run(core.KindMCM, cfg).MatchesPerCycle >= 0.98*plateau {
			return load
		}
	}
	return 1.0
}

func (r Result) String() string {
	return fmt.Sprintf("%s: %.3f matches/cycle", r.Algorithm, r.MatchesPerCycle)
}
