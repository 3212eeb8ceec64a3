package core

import "math/bits"

// ISLIP is McKeown's iSLIP scheduler, the hardware-implementable
// derivative of PIM the paper cites in §3.1 ("researchers have proposed
// variations of PIM, such as iSLIP, that can be implemented in hardware,
// but their matching capabilities are similar to PIM's"). It replaces
// PIM's random grant and accept steps with rotating round-robin pointers:
//
//	Grant:  each unmatched output grants the first requesting input at or
//	        after its grant pointer.
//	Accept: each input accepts the first granting output at or after its
//	        accept pointer.
//	Pointers advance one position past their choice only when the grant is
//	        accepted, and only in the first iteration — the property that
//	        desynchronizes the pointers and gives iSLIP its 100% throughput
//	        on uniform traffic.
//
// iSLIP is not part of the paper's figures; it is included as the natural
// extension point the paper names, and the standalone model can run it for
// comparison.
//
// Bitplane kernel: "first set bit at or after the pointer" is a rotate of
// the request word by the pointer followed by TrailingZeros64 — the
// software form of the programmable-priority encoder in a hardware
// round-robin arbiter — replacing the scalar wrap-around scan.
type ISLIP struct {
	iterations int
	grantPtr   []int // per column
	acceptPtr  []int // per row
	rowMask    []uint64
	matchRow   []int
	grants     []Grant // reused across calls
}

// NewISLIP returns an iSLIP scheduler with the given iteration count.
func NewISLIP(iterations int) *ISLIP {
	if iterations < 1 {
		panic("core: iSLIP needs at least one iteration")
	}
	return &ISLIP{iterations: iterations}
}

// Name implements Arbiter.
func (a *ISLIP) Name() string { return "iSLIP" }

// firstFrom returns the first set bit of w at or cyclically after ptr
// within an n-bit word; w must be nonzero with no bits at or above n.
func firstFrom(w uint64, ptr, n int) int {
	ptr %= n
	if ptr != 0 {
		w = ((w >> uint(ptr)) | (w << uint(n-ptr))) & rowsAll(n)
	}
	pos := ptr + bits.TrailingZeros64(w)
	if pos >= n {
		pos -= n
	}
	return pos
}

// Arbitrate implements Arbiter.
func (a *ISLIP) Arbitrate(m *Matrix) []Grant {
	if cap(a.matchRow) < m.Rows {
		a.matchRow = make([]int, m.Rows)
		a.rowMask = make([]uint64, m.Rows)
		a.acceptPtr = make([]int, m.Rows)
	}
	if cap(a.grantPtr) < m.Cols {
		a.grantPtr = make([]int, m.Cols)
	}
	matchRow := a.matchRow[:m.Rows]
	rowMask := a.rowMask[:m.Rows] // all-zero between calls (see accept step)
	grantPtr := a.grantPtr[:m.Cols]
	acceptPtr := a.acceptPtr[:m.Rows]
	unmatchedRows := rowsAll(m.Rows)
	var matchedCols uint64

	for it := 0; it < a.iterations; it++ {
		// Grant: the first unmatched requester at or after the column's
		// rotating pointer.
		var grantedRows uint64
		for c := 0; c < m.Cols; c++ {
			if matchedCols&(1<<uint(c)) != 0 {
				continue
			}
			cand := m.colReq[c] & unmatchedRows
			if cand == 0 {
				continue
			}
			r := firstFrom(cand, grantPtr[c], m.Rows)
			rowMask[r] |= 1 << uint(c)
			grantedRows |= 1 << uint(r)
		}
		if grantedRows == 0 {
			break
		}
		// Accept: the first granting output at or after the row's pointer;
		// pointers move only on acceptance and only in the first iteration.
		// Every granted row accepts, so rowMask returns to zero.
		for g := grantedRows; g != 0; g &= g - 1 {
			r := bits.TrailingZeros64(g)
			c := firstFrom(rowMask[r], acceptPtr[r], m.Cols)
			rowMask[r] = 0
			matchRow[r] = c
			matchedCols |= 1 << uint(c)
			unmatchedRows &^= 1 << uint(r)
			if it == 0 {
				acceptPtr[r] = (c + 1) % m.Cols
				grantPtr[c] = (r + 1) % m.Rows
			}
		}
	}

	grants := sizeGrants(a.grants, m)
	for g := rowsAll(m.Rows) &^ unmatchedRows; g != 0; g &= g - 1 {
		r := bits.TrailingZeros64(g)
		grants = append(grants, Grant{Row: r, Col: matchRow[r], Cell: m.At(r, matchRow[r])})
	}
	a.grants = grants
	return grants
}
