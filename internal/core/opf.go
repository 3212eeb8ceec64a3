package core

import "math/bits"

// OPF is the naive "oldest packet first" strawman of the paper's Figure 2:
// every input port nominates its single oldest packet, regardless of what
// the other input ports are doing, and each output port serves the oldest
// nomination it receives. When several ports' oldest packets want the same
// output, OPF suffers arbitration collisions and delivers a poor matching —
// the motivating example for the interaction machinery in PIM and WFA, and
// the baseline SPAA's matching capability is compared to.
//
// Bitplane kernel: like SPAA's nominate step, the per-port oldest-packet
// scan walks PortRowMask x RowMask words with TrailingZeros64, and the
// output-port service loop visits only columns that received a nomination.
type OPF struct {
	// scratch, reused across calls
	noms   []opfNom
	grants []Grant
}

type opfNom struct {
	row, col int
	cell     Cell
}

// NewOPF returns the oldest-packet-first strawman.
func NewOPF() *OPF { return &OPF{} }

// Name implements Arbiter.
func (*OPF) Name() string { return "OPF" }

// Arbitrate implements Arbiter.
func (a *OPF) Arbitrate(m *Matrix) []Grant {
	// Group rows by input port; each port offers its overall-oldest packet.
	noms := a.noms[:0]
	var nomCols uint64
	for p := 0; p < m.Ports(); p++ {
		bestRow, bestCol := -1, -1
		var best Cell
		for rm := m.portRows[p]; rm != 0; rm &= rm - 1 {
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
		if bestRow != -1 {
			noms = append(noms, opfNom{bestRow, bestCol, best})
			nomCols |= 1 << uint(bestCol)
		}
	}
	a.noms = noms
	// Each output port serves the oldest nomination; collisions lose.
	grants := sizeGrants(a.grants, m)
	for w := nomCols; w != 0; w &= w - 1 {
		c := bits.TrailingZeros64(w)
		best := -1
		for i, n := range noms {
			if n.col != c {
				continue
			}
			if best == -1 || n.cell.Age < noms[best].cell.Age ||
				(n.cell.Age == noms[best].cell.Age && n.cell.Key < noms[best].cell.Key) {
				best = i
			}
		}
		grants = append(grants, Grant{Row: noms[best].row, Col: c, Cell: noms[best].cell})
	}
	a.grants = grants
	return grants
}
