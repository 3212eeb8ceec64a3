package core

import "math/bits"

// SPAA is the Simple Pipelined Arbitration Algorithm implemented in the
// Alpha 21364 router — the paper's contribution (§3.3). Its three steps:
//
//  1. Nominate: each input port arbiter nominates one packet to exactly one
//     output port arbiter — the oldest packet satisfying the basic
//     constraints. Nominating to a single output is what removes the
//     input/output interaction that makes PIM and WFA hard to pipeline, and
//     what allows the speculative buffer read.
//  2. Grant: an output port arbiter receiving multiple requests selects the
//     least-recently selected input port arbiter (or, under the Rotary
//     Rule, a network input port arbiter first) and informs the input
//     arbiters.
//  3. Reset: input arbiters free the unselected packets for re-nomination.
//
// Like OPF in the paper's Figure 2, SPAA admits arbitration collisions —
// several inputs may nominate the same output and all but one lose — which
// is why its standalone matching capability trails PIM and WFA when many
// output ports are free.
//
// Nomination granularity: each *input port* makes one nomination per cycle
// through one of its two buffer read ports, alternating between them. This
// matches Figure 2 (one candidate per input port) and reproduces the
// paper's measured matching gap (MCM ≈ +36% over SPAA at saturation). The
// second read port exists so that two multi-cycle packet reads of one
// input buffer can be in flight at once, not to double the per-cycle
// nomination rate.
//
// Bitplane kernel: a port's oldest-packet scan walks PortRowMask x
// RowMask words with TrailingZeros64, visiting only valid cells instead of
// the port's whole Rows x Cols slab, and the adaptive second-direction
// probe iterates the row's remaining validity word.
type SPAA struct {
	policy *GrantPolicy
	// colPref[row] rotates the column choice when a packet could be
	// nominated to either of its two adaptive directions.
	colPref []int

	// scratch, reused across calls so steady-state arbitration does not
	// allocate
	nomRow  []int
	nomNet  []bool
	nomCell []Cell
	noms    []Grant
	grants  []Grant
}

// NewSPAA returns SPAA with the least-recently-selected grant policy.
func NewSPAA() *SPAA { return &SPAA{} }

// NewSPAARotary returns SPAA with the Rotary Rule grant policy.
func NewSPAARotary() *SPAA {
	s := NewSPAA()
	s.policy = NewGrantPolicy(RouterRows, RouterCols, true)
	return s
}

// Name implements Arbiter.
func (a *SPAA) Name() string {
	if a.policy != nil && a.policy.Rotary() {
		return "SPAA-rotary"
	}
	return "SPAA-base"
}

// Policy exposes the grant policy so the timing router can reuse it for
// its pipelined GA stage.
func (a *SPAA) Policy(rows, cols int) *GrantPolicy {
	if a.policy == nil {
		a.policy = NewGrantPolicy(rows, cols, false)
	}
	return a.policy
}

// Nominate runs SPAA step 1 on the matrix: each input port nominates its
// oldest candidate packet — found across both of its read-port rows, since
// the pair shares one buffer and synchronizes — to a single output port.
// Exported separately because the timing router pipelines nomination and
// grant across cycles.
func (a *SPAA) Nominate(m *Matrix) []Grant {
	if len(a.colPref) < m.Rows {
		a.colPref = make([]int, m.Rows)
	}

	noms := a.noms[:0]
	for p := 0; p < m.Ports(); p++ {
		row, col, ok := a.nominatePort(m, p)
		if ok {
			noms = append(noms, Grant{Row: row, Col: col, Cell: m.At(row, col)})
		}
	}
	a.noms = noms
	return noms
}

// nominatePort picks the single nomination for one input port: the oldest
// packet across the port's read-port rows; if that packet may use two
// output ports, the choice rotates between them.
func (a *SPAA) nominatePort(m *Matrix, port int) (row, col int, ok bool) {
	bestRow, bestCol := -1, -1
	var best Cell
	for rm := m.portRows[port]; rm != 0; rm &= rm - 1 {
		r := bits.TrailingZeros64(rm)
		base := r * m.Cols
		for cm := m.rowValid[r]; cm != 0; cm &= cm - 1 {
			c := bits.TrailingZeros64(cm)
			cell := m.cells[base+c]
			if bestRow == -1 || cell.Age < best.Age ||
				(cell.Age == best.Age && cell.Key < best.Key) {
				bestRow, bestCol, best = r, c, cell
			}
		}
	}
	if bestRow == -1 {
		return 0, 0, false
	}
	// The oldest packet may appear in one more column of its row (adaptive
	// routing allows at most two); alternate between the two choices.
	otherCol := -1
	base := bestRow * m.Cols
	for cm := m.rowValid[bestRow] &^ (1 << uint(bestCol)); cm != 0; cm &= cm - 1 {
		c := bits.TrailingZeros64(cm)
		if m.cells[base+c].Key == best.Key {
			otherCol = c
			break
		}
	}
	if otherCol != -1 {
		a.colPref[bestRow]++
		if a.colPref[bestRow]%2 == 1 {
			bestCol = otherCol
		}
	}
	return bestRow, bestCol, true
}

// Grant runs SPAA step 2: each output port arbiter selects among the
// nominations for its column using the grant policy. The unselected
// nominations are simply not returned (step 3, Reset, is the caller's
// concern: in the standalone model the packets stay queued; in the timing
// router their nomination lock is cleared).
func (a *SPAA) Grant(m *Matrix, noms []Grant) []Grant {
	policy := a.Policy(m.Rows, m.Cols)
	var nomCols uint64
	for i := range noms {
		nomCols |= 1 << uint(noms[i].Col)
	}
	grants := sizeGrants(a.grants, m)
	for w := nomCols; w != 0; w &= w - 1 {
		c := bits.TrailingZeros64(w)
		a.nomRow = a.nomRow[:0]
		a.nomNet = a.nomNet[:0]
		a.nomCell = a.nomCell[:0]
		for _, n := range noms {
			if n.Col == c {
				a.nomRow = append(a.nomRow, n.Row)
				a.nomNet = append(a.nomNet, m.netRows&(1<<uint(n.Row)) != 0)
				a.nomCell = append(a.nomCell, n.Cell)
			}
		}
		i := policy.Select(c, a.nomRow, a.nomNet)
		grants = append(grants, Grant{Row: a.nomRow[i], Col: c, Cell: a.nomCell[i]})
	}
	a.grants = grants
	return grants
}

// Arbitrate implements Arbiter: one full nominate/grant pass, as executed
// by the standalone model where every algorithm runs in a single cycle.
func (a *SPAA) Arbitrate(m *Matrix) []Grant {
	return a.Grant(m, a.Nominate(m))
}
