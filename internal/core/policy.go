package core

import "math/bits"

// GrantPolicy selects which requesting row an output-port (global) arbiter
// grants. The 21364's SPAA uses least-recently-selected (LRS); the Rotary
// Rule variant first restricts the choice to rows fed by network input
// ports (cross-traffic) when any are present, and applies LRS within the
// group (paper §3.4). The same policy object is shared by the standalone
// model and the timing router so prioritization state persists correctly.
type GrantPolicy struct {
	rotary bool
	rows   int
	// lastSelected[col*rows+row] is the virtual time the row was last
	// granted by the column; zero means never.
	lastSelected []int64
	clock        int64
}

// NewGrantPolicy returns an LRS policy for a rows x cols matrix; with
// rotary set, network rows take absolute priority over local rows.
func NewGrantPolicy(rows, cols int, rotary bool) *GrantPolicy {
	return &GrantPolicy{rotary: rotary, rows: rows, lastSelected: make([]int64, rows*cols)}
}

// Rotary reports whether the policy applies the Rotary Rule.
func (p *GrantPolicy) Rotary() bool { return p.rotary }

// Name implements SelectPolicy: "lrs", or "rotary-lrs" under the Rotary
// Rule.
func (p *GrantPolicy) Name() string {
	if p.rotary {
		return "rotary-lrs"
	}
	return "lrs"
}

// Select picks the winning row for column col among candidate rows.
// network[i] tells whether rows[i] is fed by a network input port. It
// returns the index into rows of the winner and records the selection.
// Select panics if rows is empty.
//
// The Rotary Rule restriction is a candidate-index bitmask: when any
// network candidate is present, the LRS scan iterates only the network
// indices with TrailingZeros64 instead of re-testing every candidate.
func (p *GrantPolicy) Select(col int, rows []int, network []bool) int {
	if len(rows) == 0 {
		panic("core: Select with no candidates")
	}
	consider := rowsAll(len(rows)) // candidate indices, not row numbers
	if p.rotary {
		var netIdx uint64
		for i, n := range network {
			if n {
				netIdx |= 1 << uint(i)
			}
		}
		if netIdx != 0 {
			consider = netIdx
		}
	}
	last := p.lastSelected[col*p.rows : (col+1)*p.rows]
	best := -1
	var bestLast int64
	for im := consider; im != 0; im &= im - 1 {
		i := bits.TrailingZeros64(im)
		// Least recently selected wins; ties break toward the lowest row
		// index, which is deterministic and matches a fixed priority chain.
		if l := last[rows[i]]; best == -1 || l < bestLast {
			best, bestLast = i, l
		}
	}
	p.clock++
	last[rows[best]] = p.clock
	return best
}
