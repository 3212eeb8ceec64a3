package core

import (
	"math/bits"

	"alpha21364/internal/sim"
)

// The paper's §3 lists the output-port selection policies routers have
// used: "random [METRO], round-robin [Cray T3E], least-recently selected
// [IBM Vulcan], some kind of a priority chain [Torus Routing Chip], or the
// Rotary Rule". SPAA ships with least-recently selected; these variants
// let the design space be explored (see BenchmarkAblationGrantPolicy).
// Like the arbitration kernels, the rotating variants resolve their winner
// on a candidate bitmask — a rotate plus TrailingZeros64 — rather than a
// distance scan; reference_test.go retains the scalar forms as the
// differential oracle.

// SelectPolicy picks the winning row for an output column among candidate
// rows. Implementations carry per-column fairness state.
type SelectPolicy interface {
	Name() string
	// Select returns the index into rows of the winner. network[i] reports
	// whether rows[i] is fed by a network input port (used by the Rotary
	// Rule). rows is never empty.
	Select(col int, rows []int, network []bool) int
}

// NewLRSPolicy returns the least-recently-selected policy, the 21364's
// shipping one: a GrantPolicy, which with rotary set gives network rows
// absolute priority.
func NewLRSPolicy(rows, cols int, rotary bool) SelectPolicy {
	return NewGrantPolicy(rows, cols, rotary)
}

// RoundRobin grants the first requesting row at or after a per-column
// rotating pointer, as in the Cray T3E.
type RoundRobin struct {
	rows int
	ptr  []int
}

// NewRoundRobinPolicy returns a round-robin policy over a rows x cols
// matrix.
func NewRoundRobinPolicy(rows, cols int) *RoundRobin {
	return &RoundRobin{rows: rows, ptr: make([]int, cols)}
}

// Name implements SelectPolicy.
func (rr *RoundRobin) Name() string { return "round-robin" }

// Select implements SelectPolicy. The candidate rows (reduced mod the
// matrix height, matching the scalar distance arithmetic) form a bitmask;
// the winner is the first set bit at or cyclically after the pointer.
func (rr *RoundRobin) Select(col int, rows []int, network []bool) int {
	if len(rows) == 0 {
		panic("core: Select with no candidates")
	}
	var mask uint64
	for _, r := range rows {
		mask |= 1 << uint(r%rr.rows)
	}
	win := firstFrom(mask, rr.ptr[col], rr.rows)
	rr.ptr[col] = (win + 1) % rr.rows
	for i, r := range rows {
		if r%rr.rows == win {
			return i
		}
	}
	panic("core: round-robin winner not among candidates")
}

// Random grants a uniformly random requesting row, as in the MIT METRO
// router (and PIM's grant step).
type Random struct {
	rng *sim.RNG
}

// NewRandomPolicy returns a random grant policy.
func NewRandomPolicy(rng *sim.RNG) *Random { return &Random{rng: rng} }

// Name implements SelectPolicy.
func (rd *Random) Name() string { return "random" }

// Select implements SelectPolicy.
func (rd *Random) Select(col int, rows []int, network []bool) int {
	if len(rows) == 0 {
		panic("core: Select with no candidates")
	}
	return rd.rng.Intn(len(rows))
}

// PriorityChain grants the lowest-numbered requesting row, the fixed
// priority chain of the Torus Routing Chip. It is deliberately unfair.
type PriorityChain struct{}

// NewPriorityChainPolicy returns the fixed-priority policy.
func NewPriorityChainPolicy() PriorityChain { return PriorityChain{} }

// Name implements SelectPolicy.
func (PriorityChain) Name() string { return "priority-chain" }

// Select implements SelectPolicy: the lowest candidate row wins, found as
// the trailing set bit of the candidate mask.
func (PriorityChain) Select(col int, rows []int, network []bool) int {
	if len(rows) == 0 {
		panic("core: Select with no candidates")
	}
	var mask uint64
	for _, r := range rows {
		if r < 0 || r >= 64 {
			// Row numbers beyond the word: fall back to the scalar scan.
			best := 0
			for i, rr := range rows {
				if rr < rows[best] {
					best = i
				}
			}
			return best
		}
		mask |= 1 << uint(r)
	}
	win := bits.TrailingZeros64(mask)
	for i, r := range rows {
		if r == win {
			return i
		}
	}
	panic("core: priority-chain winner not among candidates")
}
