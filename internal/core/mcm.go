package core

import "math/bits"

// MCM is the Maximal Cardinality Matching algorithm of the paper (§3): a
// maximum-weight matching with all weights equal, i.e. a maximum bipartite
// matching between the 16 read-port arbiters and the 7 output-port
// arbiters. The paper uses MCM as an upper bound in the standalone model
// only — it "exhaustively searches the space for the maximum number of
// matches" and is not implementable in hardware within a few cycles.
//
// We implement it with Hopcroft–Karp, which finds a provably maximum
// matching (the quantity the paper measures); tests cross-check it against
// brute-force search on small matrices.
//
// Bitplane kernel: BFS layering and DFS augmentation iterate each row's
// validity word with TrailingZeros64 instead of probing all columns, rows
// with no requests are pruned from the search with the nonempty-row mask,
// and the phase loop stops as soon as the matching reaches the popcount
// bound min(|nonempty rows|, |requested columns|) — the maximum possible
// cardinality — skipping the final no-progress BFS pass.
type MCM struct {
	// scratch, sized on first use
	matchRow []int // row -> col or -1
	matchCol []int // col -> row or -1
	dist     []int
	queue    []int
	grants   []Grant // reused across calls
}

// NewMCM returns the exhaustive matcher.
func NewMCM() *MCM { return &MCM{} }

// Name implements Arbiter.
func (a *MCM) Name() string { return "MCM" }

const inf = int(^uint(0) >> 1)

// Arbitrate implements Arbiter, returning a maximum matching.
func (a *MCM) Arbitrate(m *Matrix) []Grant {
	if cap(a.matchRow) < m.Rows {
		a.matchRow = make([]int, m.Rows)
		a.dist = make([]int, m.Rows+1)
		a.queue = make([]int, 0, m.Rows)
	}
	if cap(a.matchCol) < m.Cols {
		a.matchCol = make([]int, m.Cols)
	}
	matchRow := a.matchRow[:m.Rows]
	matchCol := a.matchCol[:m.Cols]
	for i := range matchRow {
		matchRow[i] = -1
	}
	for i := range matchCol {
		matchCol[i] = -1
	}

	// Popcount bound: a matching cannot exceed the number of rows with any
	// request, nor the number of columns requested by anyone.
	var liveRows, liveCols uint64
	for c, w := range m.colReq {
		liveRows |= w
		if w != 0 {
			liveCols |= 1 << uint(c)
		}
	}
	bound := bits.OnesCount64(liveRows)
	if cb := bits.OnesCount64(liveCols); cb < bound {
		bound = cb
	}
	size := 0

	// Hopcroft–Karp: repeatedly find a maximal set of shortest augmenting
	// paths via BFS layering + DFS augmentation. Rows outside liveRows
	// have no edges and are pruned from both phases.
	dist := a.dist[:m.Rows+1]
	for size < bound {
		// BFS from free rows. dist[m.Rows] is the nil sentinel.
		q := a.queue[:0]
		for lr := liveRows; lr != 0; lr &= lr - 1 {
			r := bits.TrailingZeros64(lr)
			if matchRow[r] == -1 {
				dist[r] = 0
				q = append(q, r)
			} else {
				dist[r] = inf
			}
		}
		dist[m.Rows] = inf
		for head := 0; head < len(q); head++ {
			r := q[head]
			if dist[r] >= dist[m.Rows] {
				continue
			}
			for w := m.rowValid[r]; w != 0; w &= w - 1 {
				c := bits.TrailingZeros64(w)
				nr := matchCol[c]
				idx := m.Rows
				if nr != -1 {
					idx = nr
				}
				if dist[idx] == inf {
					dist[idx] = dist[r] + 1
					if nr != -1 {
						q = append(q, nr)
					}
				}
			}
		}
		if dist[m.Rows] == inf {
			break // no augmenting path
		}
		augmented := false
		for lr := liveRows; lr != 0; lr &= lr - 1 {
			r := bits.TrailingZeros64(lr)
			if matchRow[r] == -1 && a.augment(m, r, matchRow, matchCol, dist) {
				augmented = true
				size++
			}
		}
		if !augmented {
			break
		}
	}

	grants := sizeGrants(a.grants, m)
	for lr := liveRows; lr != 0; lr &= lr - 1 {
		r := bits.TrailingZeros64(lr)
		if c := matchRow[r]; c != -1 {
			grants = append(grants, Grant{Row: r, Col: c, Cell: m.At(r, c)})
		}
	}
	a.grants = grants
	return grants
}

func (a *MCM) augment(m *Matrix, r int, matchRow, matchCol, dist []int) bool {
	for w := m.rowValid[r]; w != 0; w &= w - 1 {
		c := bits.TrailingZeros64(w)
		nr := matchCol[c]
		idx := m.Rows
		if nr != -1 {
			idx = nr
		}
		if dist[idx] == dist[r]+1 {
			if nr == -1 || a.augment(m, nr, matchRow, matchCol, dist) {
				matchRow[r] = c
				matchCol[c] = r
				return true
			}
		}
	}
	dist[r] = inf
	return false
}
