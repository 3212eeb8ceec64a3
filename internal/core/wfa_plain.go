package core

import "math/bits"

// WFAPlain is the original, non-wrapped Wave-Front Arbiter of Tamir and
// Chi: a single wave sweeps the matrix from the top-left arbitration cell,
// evaluating plain diagonals i+j = 0, 1, ... in order. Without wrapping
// (or a rotated starting cell) the top-left corner holds permanent
// priority, which is why Tamir and Chi rotate the start and why the paper
// bases its timing on the Wrapped WFA, "which provides matching
// performance similar to that of WFA's, but executes faster in hardware by
// starting multiple wavefronts in parallel" (§3.2).
//
// WFAPlain exists for the fairness ablation and tests; it is not one of
// the paper's measured configurations. It uses the same per-diagonal
// row-word bucketing as the wrapped kernel (see wfa.go), minus the wrap:
// plain diagonal d = i + j holds at most one cell per row.
type WFAPlain struct {
	diag   []uint64
	grants []Grant // reused across calls
}

// NewWFAPlain returns the fixed-priority, non-wrapped wave-front arbiter.
func NewWFAPlain() *WFAPlain { return &WFAPlain{} }

// Name implements Arbiter.
func (a *WFAPlain) Name() string { return "WFA-plain" }

// Arbitrate implements Arbiter.
func (a *WFAPlain) Arbitrate(m *Matrix) []Grant {
	nd := m.Rows + m.Cols - 1
	if cap(a.diag) < nd {
		a.diag = make([]uint64, nd)
	}
	diag := a.diag[:nd]
	for d := range diag {
		diag[d] = 0
	}
	for i := 0; i < m.Rows; i++ {
		for w := m.rowValid[i]; w != 0; w &= w - 1 {
			diag[i+bits.TrailingZeros64(w)] |= 1 << uint(i)
		}
	}

	rowFree := rowsAll(m.Rows)
	colFree := rowsAll(m.Cols)
	grants := sizeGrants(a.grants, m)
	for d := 0; d < nd; d++ {
		// Plain diagonal d: cells (i, d-i). Conflict-free within the
		// diagonal, strictly ordered across diagonals.
		for cand := diag[d] & rowFree; cand != 0; cand &= cand - 1 {
			i := bits.TrailingZeros64(cand)
			j := d - i
			if colFree&(1<<uint(j)) == 0 {
				continue
			}
			rowFree &^= 1 << uint(i)
			colFree &^= 1 << uint(j)
			grants = append(grants, Grant{Row: i, Col: j, Cell: m.At(i, j)})
		}
	}
	a.grants = grants
	return grants
}
