package core

// reference_test.go retains the pre-bitplane scalar kernels, cell-by-cell
// transliterations of the algorithm descriptions in the paper. They are
// the differential oracle for the word-parallel kernels: every production
// arbiter must reproduce its reference's grants byte for byte over any
// matrix sequence (TestKernelDifferential, FuzzArbiterKernels), and the
// rotary grant-policy variants are held to the same standard
// (TestPolicyDifferential). The reference kernels carry the same
// prioritization state as their production twins — round-robin pointers,
// LRS clocks, RNG draws — in the same order, so a reference arbiter seeded
// identically to a production one stays in lock-step across calls.
//
// They live in a test file because only the differential suite and the
// Arbitrate microbenchmarks use them; they exist to make "the rewrite
// changed no answers" a checkable property rather than a code-review
// claim.

import "alpha21364/internal/sim"

// NewReferenceArbiter constructs the retained scalar implementation of a
// kind, mirroring New.
func NewReferenceArbiter(k Kind, rng *sim.RNG) Arbiter {
	switch k {
	case KindMCM:
		return newRefMCM()
	case KindPIM:
		return newRefPIM(PIMFullIterations, rng)
	case KindPIM1:
		return newRefPIM(1, rng)
	case KindWFABase:
		return &refWFA{}
	case KindWFARotary:
		return &refWFA{rotary: true}
	case KindSPAABase:
		return &refSPAA{}
	case KindSPAARotary:
		return &refSPAA{policy: newRefGrantPolicy(RouterRows, RouterCols, true)}
	case KindOPF:
		return &refOPF{}
	}
	panic("core: invalid reference kind")
}

// NewReferenceISLIP returns the retained scalar iSLIP, mirroring NewISLIP.
func NewReferenceISLIP(iterations int) Arbiter {
	if iterations < 1 {
		panic("core: iSLIP needs at least one iteration")
	}
	return &refISLIP{iterations: iterations}
}

// NewReferenceWFAPlain returns the retained scalar non-wrapped wave-front
// arbiter, mirroring NewWFAPlain.
func NewReferenceWFAPlain() Arbiter { return &refWFAPlain{} }

// ---- PIM ----

type refPIM struct {
	iterations int
	rng        *sim.RNG
	name       string
	rowMask    []uint64
	matchRow   []int
	matchCol   []int
	reqs       []int
	grants     []Grant
}

func newRefPIM(iterations int, rng *sim.RNG) *refPIM {
	name := "PIM"
	if iterations == 1 {
		name = "PIM1"
	}
	return &refPIM{iterations: iterations, rng: rng, name: name}
}

func (a *refPIM) Name() string { return a.name }

func (a *refPIM) Arbitrate(m *Matrix) []Grant {
	if cap(a.matchRow) < m.Rows {
		a.matchRow = make([]int, m.Rows)
		a.rowMask = make([]uint64, m.Rows)
	}
	if cap(a.matchCol) < m.Cols {
		a.matchCol = make([]int, m.Cols)
	}
	matchRow := a.matchRow[:m.Rows]
	matchCol := a.matchCol[:m.Cols]
	rowMask := a.rowMask[:m.Rows]
	for i := range matchRow {
		matchRow[i] = -1
	}
	for i := range matchCol {
		matchCol[i] = -1
	}

	for it := 0; it < a.iterations; it++ {
		for r := range rowMask {
			rowMask[r] = 0
		}
		anyGrant := false
		for c := 0; c < m.Cols; c++ {
			if matchCol[c] != -1 {
				continue
			}
			requesters := a.reqs[:0]
			for r := 0; r < m.Rows; r++ {
				if matchRow[r] == -1 && m.At(r, c).Valid {
					requesters = append(requesters, r)
				}
			}
			a.reqs = requesters
			if len(requesters) == 0 {
				continue
			}
			winner := requesters[a.rng.Intn(len(requesters))]
			rowMask[winner] |= 1 << uint(c)
			anyGrant = true
		}
		if !anyGrant {
			break
		}
		for r := 0; r < m.Rows; r++ {
			if rowMask[r] == 0 {
				continue
			}
			c := a.rng.Pick(rowMask[r])
			matchRow[r] = c
			matchCol[c] = r
		}
	}

	grants := a.grants[:0]
	for r := 0; r < m.Rows; r++ {
		if c := matchRow[r]; c != -1 {
			grants = append(grants, Grant{Row: r, Col: c, Cell: m.At(r, c)})
		}
	}
	a.grants = grants
	return grants
}

// ---- iSLIP ----

type refISLIP struct {
	iterations int
	grantPtr   []int
	acceptPtr  []int
	rowMask    []uint64
	matchRow   []int
	matchCol   []int
	grants     []Grant
}

func (a *refISLIP) Name() string { return "iSLIP" }

func (a *refISLIP) Arbitrate(m *Matrix) []Grant {
	if cap(a.matchRow) < m.Rows {
		a.matchRow = make([]int, m.Rows)
		a.rowMask = make([]uint64, m.Rows)
		a.acceptPtr = make([]int, m.Rows)
	}
	if cap(a.matchCol) < m.Cols {
		a.matchCol = make([]int, m.Cols)
		a.grantPtr = make([]int, m.Cols)
	}
	matchRow := a.matchRow[:m.Rows]
	matchCol := a.matchCol[:m.Cols]
	rowMask := a.rowMask[:m.Rows]
	for i := range matchRow {
		matchRow[i] = -1
	}
	for i := range matchCol {
		matchCol[i] = -1
	}

	for it := 0; it < a.iterations; it++ {
		for r := range rowMask {
			rowMask[r] = 0
		}
		anyGrant := false
		for c := 0; c < m.Cols; c++ {
			if matchCol[c] != -1 {
				continue
			}
			for k := 0; k < m.Rows; k++ {
				r := (a.grantPtr[c] + k) % m.Rows
				if matchRow[r] == -1 && m.At(r, c).Valid {
					rowMask[r] |= 1 << uint(c)
					anyGrant = true
					break
				}
			}
		}
		if !anyGrant {
			break
		}
		for r := 0; r < m.Rows; r++ {
			if rowMask[r] == 0 {
				continue
			}
			for k := 0; k < m.Cols; k++ {
				c := (a.acceptPtr[r] + k) % m.Cols
				if rowMask[r]&(1<<uint(c)) == 0 {
					continue
				}
				matchRow[r] = c
				matchCol[c] = r
				if it == 0 {
					a.acceptPtr[r] = (c + 1) % m.Cols
					a.grantPtr[c] = (r + 1) % m.Rows
				}
				break
			}
		}
	}

	grants := a.grants[:0]
	for r := 0; r < m.Rows; r++ {
		if c := matchRow[r]; c != -1 {
			grants = append(grants, Grant{Row: r, Col: c, Cell: m.At(r, c)})
		}
	}
	a.grants = grants
	return grants
}

// ---- WFA (wrapped) ----

type refWFA struct {
	rotary  bool
	counter int64
	rowUsed []bool
	colUsed []bool
	grants  []Grant
}

func (a *refWFA) Name() string {
	if a.rotary {
		return "WFA-rotary"
	}
	return "WFA-base"
}

func (a *refWFA) Arbitrate(m *Matrix) []Grant {
	if cap(a.rowUsed) < m.Rows {
		a.rowUsed = make([]bool, m.Rows)
	}
	if cap(a.colUsed) < m.Cols {
		a.colUsed = make([]bool, m.Cols)
	}
	rowUsed := a.rowUsed[:m.Rows]
	colUsed := a.colUsed[:m.Cols]
	for i := range rowUsed {
		rowUsed[i] = false
	}
	for i := range colUsed {
		colUsed[i] = false
	}

	grants := a.grants[:0]
	if a.rotary {
		grants = a.wave(m, rowUsed, colUsed, func(r int) bool { return m.RowNetwork[r] }, grants)
		grants = a.wave(m, rowUsed, colUsed, func(r int) bool { return !m.RowNetwork[r] }, grants)
	} else {
		grants = a.wave(m, rowUsed, colUsed, func(int) bool { return true }, grants)
	}
	a.counter++
	a.grants = grants
	return grants
}

func (a *refWFA) wave(m *Matrix, rowUsed, colUsed []bool, include func(int) bool, grants []Grant) []Grant {
	n := m.Rows
	if m.Cols > n {
		n = m.Cols
	}
	start := int(a.counter) % n
	for step := 0; step < n; step++ {
		d := (start + step) % n
		for i := 0; i < m.Rows; i++ {
			if !include(i) {
				continue
			}
			j := (d - i%n + n) % n
			if j >= m.Cols {
				continue
			}
			if rowUsed[i] || colUsed[j] {
				continue
			}
			if !m.At(i, j).Valid {
				continue
			}
			rowUsed[i] = true
			colUsed[j] = true
			grants = append(grants, Grant{Row: i, Col: j, Cell: m.At(i, j)})
		}
	}
	return grants
}

// ---- WFA (plain) ----

type refWFAPlain struct {
	rowUsed []bool
	colUsed []bool
	grants  []Grant
}

func (a *refWFAPlain) Name() string { return "WFA-plain" }

func (a *refWFAPlain) Arbitrate(m *Matrix) []Grant {
	if cap(a.rowUsed) < m.Rows {
		a.rowUsed = make([]bool, m.Rows)
	}
	if cap(a.colUsed) < m.Cols {
		a.colUsed = make([]bool, m.Cols)
	}
	rowUsed := a.rowUsed[:m.Rows]
	colUsed := a.colUsed[:m.Cols]
	for i := range rowUsed {
		rowUsed[i] = false
	}
	for i := range colUsed {
		colUsed[i] = false
	}
	grants := a.grants[:0]
	for d := 0; d <= m.Rows+m.Cols-2; d++ {
		for i := 0; i < m.Rows; i++ {
			j := d - i
			if j < 0 || j >= m.Cols {
				continue
			}
			if rowUsed[i] || colUsed[j] || !m.At(i, j).Valid {
				continue
			}
			rowUsed[i] = true
			colUsed[j] = true
			grants = append(grants, Grant{Row: i, Col: j, Cell: m.At(i, j)})
		}
	}
	a.grants = grants
	return grants
}

// ---- SPAA ----

// refGrantPolicy is the scalar GrantPolicy.Select, state-compatible with
// the production policy (same lastSelected/clock evolution).
type refGrantPolicy struct {
	rotary       bool
	lastSelected [][]int64
	clock        int64
}

func newRefGrantPolicy(rows, cols int, rotary bool) *refGrantPolicy {
	p := &refGrantPolicy{rotary: rotary, lastSelected: make([][]int64, cols)}
	for c := range p.lastSelected {
		p.lastSelected[c] = make([]int64, rows)
	}
	return p
}

func (p *refGrantPolicy) Select(col int, rows []int, network []bool) int {
	if len(rows) == 0 {
		panic("core: Select with no candidates")
	}
	considerNetworkOnly := false
	if p.rotary {
		for _, n := range network {
			if n {
				considerNetworkOnly = true
				break
			}
		}
	}
	best := -1
	var bestLast int64
	for i, r := range rows {
		if considerNetworkOnly && !network[i] {
			continue
		}
		last := p.lastSelected[col][r]
		if best == -1 || last < bestLast {
			best, bestLast = i, last
		}
	}
	p.clock++
	p.lastSelected[col][rows[best]] = p.clock
	return best
}

type refSPAA struct {
	policy  *refGrantPolicy
	colPref []int
	nomRow  []int
	nomNet  []bool
	nomCell []Cell
	noms    []Grant
	grants  []Grant
}

func (a *refSPAA) Name() string {
	if a.policy != nil && a.policy.rotary {
		return "SPAA-rotary"
	}
	return "SPAA-base"
}

func (a *refSPAA) Nominate(m *Matrix) []Grant {
	ports := 0
	for _, p := range m.RowPort {
		if int(p)+1 > ports {
			ports = int(p) + 1
		}
	}
	if len(a.colPref) < m.Rows {
		a.colPref = make([]int, m.Rows)
	}

	noms := a.noms[:0]
	for p := 0; p < ports; p++ {
		row, col, ok := a.nominatePort(m, p)
		if ok {
			noms = append(noms, Grant{Row: row, Col: col, Cell: m.At(row, col)})
		}
	}
	a.noms = noms
	return noms
}

func (a *refSPAA) nominatePort(m *Matrix, port int) (row, col int, ok bool) {
	bestRow, bestCol := -1, -1
	var best Cell
	for r := 0; r < m.Rows; r++ {
		if int(m.RowPort[r]) != port {
			continue
		}
		for c := 0; c < m.Cols; c++ {
			cell := m.At(r, c)
			if !cell.Valid {
				continue
			}
			if bestRow == -1 || cell.Age < best.Age ||
				(cell.Age == best.Age && cell.Key < best.Key) {
				bestRow, bestCol, best = r, c, cell
			}
		}
	}
	if bestRow == -1 {
		return 0, 0, false
	}
	otherCol := -1
	for c := 0; c < m.Cols; c++ {
		if c == bestCol {
			continue
		}
		cell := m.At(bestRow, c)
		if cell.Valid && cell.Key == best.Key {
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

func (a *refSPAA) Grant(m *Matrix, noms []Grant) []Grant {
	if a.policy == nil {
		a.policy = newRefGrantPolicy(m.Rows, m.Cols, false)
	}
	grants := a.grants[:0]
	for c := 0; c < m.Cols; c++ {
		a.nomRow = a.nomRow[:0]
		a.nomNet = a.nomNet[:0]
		a.nomCell = a.nomCell[:0]
		for _, n := range noms {
			if n.Col == c {
				a.nomRow = append(a.nomRow, n.Row)
				a.nomNet = append(a.nomNet, m.RowNetwork[n.Row])
				a.nomCell = append(a.nomCell, n.Cell)
			}
		}
		if len(a.nomRow) == 0 {
			continue
		}
		w := a.policy.Select(c, a.nomRow, a.nomNet)
		grants = append(grants, Grant{Row: a.nomRow[w], Col: c, Cell: a.nomCell[w]})
	}
	a.grants = grants
	return grants
}

func (a *refSPAA) Arbitrate(m *Matrix) []Grant {
	return a.Grant(m, a.Nominate(m))
}

// ---- MCM ----

type refMCM struct {
	matchRow []int
	matchCol []int
	dist     []int
	queue    []int
	grants   []Grant
}

func newRefMCM() *refMCM { return &refMCM{} }

func (a *refMCM) Name() string { return "MCM" }

func (a *refMCM) Arbitrate(m *Matrix) []Grant {
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

	dist := a.dist[:m.Rows+1]
	for {
		q := a.queue[:0]
		for r := 0; r < m.Rows; r++ {
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
			for c := 0; c < m.Cols; c++ {
				if !m.At(r, c).Valid {
					continue
				}
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
			break
		}
		augmented := false
		for r := 0; r < m.Rows; r++ {
			if matchRow[r] == -1 && a.augment(m, r, matchRow, matchCol, dist) {
				augmented = true
			}
		}
		if !augmented {
			break
		}
	}

	grants := a.grants[:0]
	for r := 0; r < m.Rows; r++ {
		if c := matchRow[r]; c != -1 {
			grants = append(grants, Grant{Row: r, Col: c, Cell: m.At(r, c)})
		}
	}
	a.grants = grants
	return grants
}

func (a *refMCM) augment(m *Matrix, r int, matchRow, matchCol, dist []int) bool {
	for c := 0; c < m.Cols; c++ {
		if !m.At(r, c).Valid {
			continue
		}
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

// ---- OPF ----

type refOPF struct {
	noms   []opfNom
	grants []Grant
}

func (a *refOPF) Name() string { return "OPF" }

func (a *refOPF) Arbitrate(m *Matrix) []Grant {
	ports := 0
	for _, p := range m.RowPort {
		if int(p)+1 > ports {
			ports = int(p) + 1
		}
	}
	noms := a.noms[:0]
	for p := 0; p < ports; p++ {
		bestRow, bestCol := -1, -1
		var best Cell
		for r := 0; r < m.Rows; r++ {
			if int(m.RowPort[r]) != p {
				continue
			}
			for c := 0; c < m.Cols; c++ {
				cell := m.At(r, c)
				if !cell.Valid {
					continue
				}
				if bestRow == -1 || cell.Age < best.Age ||
					(cell.Age == best.Age && cell.Key < best.Key) {
					bestRow, bestCol, best = r, c, cell
				}
			}
		}
		if bestRow != -1 {
			noms = append(noms, opfNom{bestRow, bestCol, best})
		}
	}
	a.noms = noms
	grants := a.grants[:0]
	for c := 0; c < m.Cols; c++ {
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
		if best != -1 {
			grants = append(grants, Grant{Row: noms[best].row, Col: c, Cell: noms[best].cell})
		}
	}
	a.grants = grants
	return grants
}

// ---- rotary policy variant references ----

// refRoundRobin is the scalar RoundRobin.Select, state-compatible with the
// production policy.
type refRoundRobin struct {
	rows int
	ptr  []int
}

func newRefRoundRobin(rows, cols int) *refRoundRobin {
	return &refRoundRobin{rows: rows, ptr: make([]int, cols)}
}

func (rr *refRoundRobin) Name() string { return "round-robin" }

func (rr *refRoundRobin) Select(col int, rows []int, network []bool) int {
	if len(rows) == 0 {
		panic("core: Select with no candidates")
	}
	best, bestDist := 0, rr.rows
	for i, r := range rows {
		d := (r - rr.ptr[col] + rr.rows) % rr.rows
		if d < bestDist {
			best, bestDist = i, d
		}
	}
	rr.ptr[col] = (rows[best] + 1) % rr.rows
	return best
}

// refPriorityChain is the scalar PriorityChain.Select.
type refPriorityChain struct{}

func (refPriorityChain) Name() string { return "priority-chain" }

func (refPriorityChain) Select(col int, rows []int, network []bool) int {
	if len(rows) == 0 {
		panic("core: Select with no candidates")
	}
	best := 0
	for i, r := range rows {
		if r < rows[best] {
			best = i
		}
	}
	return best
}
