package core

import "math/bits"

// WFA is the (wrapped) Wave-Front Arbiter of Tamir and Chi, as implemented
// in the SGI Spider switch (paper §3.2). The connection matrix is evaluated
// as a systolic wave: a cell (i,j) receives a grant when it has a request
// and no cell earlier in the wave has already claimed row i or column j.
//
// We implement the Wrapped WFA, which the paper's timing is based on: cells
// are grouped into wrapped diagonals (i+j mod Rows); diagonal k+1 is
// evaluated after diagonal k, and cells within a diagonal never share a row
// or column, so they are conflict-free. Fairness comes from rotating the
// starting diagonal:
//
//   - WFA-base rotates the start round-robin, as Tamir and Chi suggest.
//   - WFA-rotary gives "cells connected to the input port arbiters for the
//     network ports the highest priority" (§3.4): the wave first sweeps the
//     network-input rows (rotating the starting diagonal within them), and
//     only then lets local-input rows claim the leftover columns. This
//     realizes the Rotary Rule's strict cross-traffic-first priority in
//     wave-front form.
//
// Bitplane kernel: each valid cell is bucketed once into a per-diagonal
// row word (the rotated-mask trick: cell (i,j) lands in diagonal word
// (i+j) mod n at bit i, so a row's validity word enters the table rotated
// by its row index). The wave then walks diagonal words ANDed with the
// free-row mask — a diagonal with no surviving candidates costs two ops —
// and within a diagonal each candidate row determines its column uniquely,
// so the branchy (diagonal x row) scalar sweep collapses to popcount-many
// bit iterations.
type WFA struct {
	rotary  bool
	counter int64
	diag    []uint64 // per-diagonal candidate-row words, rebuilt per pass
	grants  []Grant  // reused across calls
}

// NewWFA returns the base wave-front arbiter (round-robin start).
func NewWFA() *WFA { return &WFA{} }

// NewWFARotary returns the Rotary Rule variant.
func NewWFARotary() *WFA { return &WFA{rotary: true} }

// Name implements Arbiter.
func (a *WFA) Name() string {
	if a.rotary {
		return "WFA-rotary"
	}
	return "WFA-base"
}

// Arbitrate implements Arbiter.
func (a *WFA) Arbitrate(m *Matrix) []Grant {
	n := m.Rows // diagonal modulus; Rows >= Cols in the 21364 (16 x 7)
	if m.Cols > n {
		n = m.Cols
	}
	if cap(a.diag) < n {
		a.diag = make([]uint64, n)
	}
	diag := a.diag[:n]
	for d := range diag {
		diag[d] = 0
	}
	// Bucket valid cells: wrapped diagonal (i+j) mod n holds at most one
	// cell per row (j ≡ d-i is unique), so bit i in diag[d] names cell
	// (i, (d-i) mod n) exactly.
	for i := 0; i < m.Rows; i++ {
		for w := m.rowValid[i]; w != 0; w &= w - 1 {
			d := i + bits.TrailingZeros64(w)
			if d >= n {
				d -= n
			}
			diag[d] |= 1 << uint(i)
		}
	}

	rowFree := rowsAll(m.Rows)
	colFree := rowsAll(m.Cols)
	grants := a.grants[:0]
	if a.rotary {
		// Rotary Rule: network-input rows sweep first at rotating priority;
		// local rows then fill the remaining columns.
		net := m.netRows
		grants = a.wave(m, diag, n, &rowFree, &colFree, net, grants)
		grants = a.wave(m, diag, n, &rowFree, &colFree, ^net, grants)
	} else {
		grants = a.wave(m, diag, n, &rowFree, &colFree, ^uint64(0), grants)
	}
	a.counter++
	a.grants = grants
	return grants
}

// wave runs one wrapped wave-front over the rows selected by include,
// starting from the rotating diagonal, honoring rows/columns already
// claimed by an earlier pass.
func (a *WFA) wave(m *Matrix, diag []uint64, n int, rowFree, colFree *uint64, include uint64, grants []Grant) []Grant {
	start := int(a.counter) % n
	for step := 0; step < n; step++ {
		d := start + step
		if d >= n {
			d -= n
		}
		// Candidates on diagonal d that are included, unclaimed, and valid;
		// iterating set bits ascending preserves the scalar row order.
		for cand := diag[d] & *rowFree & include; cand != 0; cand &= cand - 1 {
			i := bits.TrailingZeros64(cand)
			j := d - i
			if j < 0 {
				j += n
			}
			if *colFree&(1<<uint(j)) == 0 {
				continue
			}
			*rowFree &^= 1 << uint(i)
			*colFree &^= 1 << uint(j)
			grants = append(grants, Grant{Row: i, Col: j, Cell: m.At(i, j)})
		}
	}
	return grants
}
