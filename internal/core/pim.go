package core

import (
	"fmt"
	"math/bits"

	"alpha21364/internal/sim"
)

// PIM is Parallel Iterative Matching (Anderson et al., ASPLOS 1992), the
// three-step nominate / grant / accept algorithm designed for the AN2 ATM
// switch (paper §3.1):
//
//  1. Nominate: each unmatched row requests every column for which it has a
//     packet (the same packet may be requested at multiple columns).
//  2. Grant: each unmatched column picks one request uniformly at random.
//  3. Accept: a row granted by several columns accepts one at random.
//
// The steps repeat for a fixed iteration count; PIM usually converges
// within log2(N) iterations, so the 21364's 16 input-port arbiters need
// four. PIM1 — the variant the paper uses in all timing evaluations,
// because multiple iterations are unimplementable in the 1.2 GHz pipeline —
// runs exactly one iteration.
//
// Bitplane kernel: a column's requesters are its request word masked by the
// still-unmatched rows — one AND instead of a row scan — and the random
// winner is the k-th set bit. The RNG draw order (grant per column
// ascending, then accept per granted row ascending) matches the retained
// scalar reference exactly, so seeded runs are byte-identical.
type PIM struct {
	iterations int
	rng        *sim.RNG
	name       string
	rowMask    []uint64 // scratch: grants received per row this iteration
	matchRow   []int
	grants     []Grant // reused across calls
}

// NewPIM returns a PIM arbiter running the given number of iterations.
func NewPIM(iterations int, rng *sim.RNG) *PIM {
	if iterations < 1 {
		panic("core: PIM needs at least one iteration")
	}
	name := fmt.Sprintf("PIM%d", iterations)
	if iterations > 1 {
		name = "PIM"
	}
	return &PIM{iterations: iterations, rng: rng, name: name}
}

// NewPIM1 returns the single-iteration PIM1 used in the paper's timing
// model.
func NewPIM1(rng *sim.RNG) *PIM { return NewPIM(1, rng) }

// Name implements Arbiter.
func (a *PIM) Name() string { return a.name }

// selectByte[b][k] is the position of the k-th (0-based) set bit of the
// byte b, so nthSetBit resolves within a byte by table lookup instead of
// a clear-one-bit-per-step loop.
var selectByte [256][8]uint8

func init() {
	for b := 0; b < 256; b++ {
		k := 0
		for i := 0; i < 8; i++ {
			if b&(1<<i) != 0 {
				selectByte[b][k] = uint8(i)
				k++
			}
		}
	}
}

// nthSetBit returns the position of the k-th (0-based) set bit of w:
// popcounts narrow the search to one byte, the table finishes it.
func nthSetBit(w uint64, k int) int {
	base := 0
	if c := bits.OnesCount32(uint32(w)); k >= c {
		k -= c
		w >>= 32
		base = 32
	}
	if c := bits.OnesCount16(uint16(w)); k >= c {
		k -= c
		w >>= 16
		base += 16
	}
	if c := bits.OnesCount8(uint8(w)); k >= c {
		k -= c
		w >>= 8
		base += 8
	}
	return base + int(selectByte[uint8(w)][k])
}

// Arbitrate implements Arbiter.
func (a *PIM) Arbitrate(m *Matrix) []Grant {
	if cap(a.matchRow) < m.Rows {
		a.matchRow = make([]int, m.Rows)
		a.rowMask = make([]uint64, m.Rows)
	}
	matchRow := a.matchRow[:m.Rows]
	rowMask := a.rowMask[:m.Rows] // all-zero between calls (see accept step)
	unmatchedRows := rowsAll(m.Rows)
	var matchedCols uint64

	// Columns with any request at all; empty columns never draw.
	var activeCols uint64
	for c, req := range m.colReq {
		if req != 0 {
			activeCols |= 1 << uint(c)
		}
	}

	for it := 0; it < a.iterations; it++ {
		// Grant: each unmatched column draws one of its still-unmatched
		// requesters uniformly at random (draw order: columns ascending,
		// matching the scalar reference).
		var grantedRows uint64
		for cw := activeCols &^ matchedCols; cw != 0; cw &= cw - 1 {
			c := bits.TrailingZeros64(cw)
			cand := m.colReq[c] & unmatchedRows
			if cand == 0 {
				continue
			}
			winner := nthSetBit(cand, a.rng.Intn(bits.OnesCount64(cand)))
			rowMask[winner] |= 1 << uint(c)
			grantedRows |= 1 << uint(winner)
		}
		if grantedRows == 0 {
			break // converged: no further matches possible
		}
		// Accept: each row granted by one or more columns accepts one at
		// random — the same one draw per row as the reference's rng.Pick,
		// resolved with the table-based bit select. Every granted row
		// accepts, so rowMask returns to zero.
		for g := grantedRows; g != 0; g &= g - 1 {
			r := bits.TrailingZeros64(g)
			gm := rowMask[r]
			c := nthSetBit(gm, a.rng.Intn(bits.OnesCount64(gm)))
			rowMask[r] = 0
			matchRow[r] = c
			matchedCols |= 1 << uint(c)
			unmatchedRows &^= 1 << uint(r)
		}
	}

	grants := a.grants[:0]
	for g := rowsAll(m.Rows) &^ unmatchedRows; g != 0; g &= g - 1 {
		r := bits.TrailingZeros64(g)
		grants = append(grants, Grant{Row: r, Col: matchRow[r], Cell: m.At(r, matchRow[r])})
	}
	a.grants = grants
	return grants
}

// rowsAll returns the mask with the low n bits set (n <= MaxDim).
func rowsAll(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}
