// Package core implements the arbitration algorithms compared by the paper:
// SPAA (the Alpha 21364's Simple Pipelined Arbitration Algorithm, the
// paper's contribution), PIM and its single-iteration variant PIM1, the
// wrapped Wave-Front Arbiter (WFA) of the SGI Spider, the exhaustive
// Maximal Cardinality Matching (MCM) upper bound, and the naive
// oldest-packet-first (OPF) strawman of the paper's Figure 2 — plus the
// Rotary Rule prioritization policy applied to WFA and SPAA.
//
// All algorithms operate on a connection Matrix (paper §3, Figure 5): rows
// are the 16 read-port ("input port" or "local") arbiters, columns are the
// 7 output-port ("global") arbiters, and each valid cell holds the oldest
// packet the row can nominate to that column this cycle. The matrix builder
// (the standalone model or the timing router) is responsible for the
// 21364's structural constraints: shaded (disconnected) cells are never
// set, a packet appears in the rows of only one read port (the read-port
// pairs synchronize), and a packet appears in at most two columns (adaptive
// routing in the minimal rectangle).
//
// Bitplane representation: alongside the Cell slice, the matrix maintains
// per-row validity masks (bit c of RowMask(r) ⇔ cell (r,c) valid) and
// per-column request words (bit r of colReq[c] ⇔ cell (r,c) valid), kept
// in sync incrementally by Set/SetMany/Clear/Reset, plus row-port and
// network-row masks derived once from the row metadata. The arbitration
// kernels iterate candidates with math/bits on these words instead of
// walking Cells one by one; reference_test.go retains the scalar kernels
// as the differential oracle.
package core

import (
	"fmt"
	"math/bits"
)

// MaxDim bounds the matrix shape so a row fits a per-column request word
// and a column fits a per-row validity word (one uint64 each). The 21364
// needs 16x7; the cap exists for the extension shapes.
const MaxDim = 64

// Cell is one matrix entry: the candidate packet a row offers a column.
type Cell struct {
	Valid   bool
	Age     int64  // arrival order; smaller is older
	Key     uint64 // packet identity: equal keys are the same packet
	Payload int32  // caller-defined handle carried through to the grant
}

// Matrix is the 21364's connection matrix for one arbitration pass.
type Matrix struct {
	Rows, Cols int
	// RowPort maps a row (read-port arbiter) to its input port; the two
	// rows of an input port share buffers. Callers that mutate it after
	// construction must call SyncRowMeta.
	RowPort []int8
	// RowNetwork marks rows fed by interprocessor (network) input ports;
	// the Rotary Rule prioritizes these. Callers that mutate it after
	// construction must call SyncRowMeta.
	RowNetwork []bool
	cells      []Cell
	// rowValid[r] bit c and colReq[c] bit r both mirror cells[r*Cols+c].Valid.
	rowValid []uint64
	colReq   []uint64
	// portRows[p] is the mask of rows RowPort maps to port p; netRows is
	// the mask of rows RowNetwork marks. Both derive from SyncRowMeta.
	portRows []uint64
	netRows  uint64
}

// NewMatrix returns an empty matrix with the given shape and uniform row
// metadata (one row per port, no network rows). Use NewRouterMatrix for
// the 21364 shape. Shapes beyond MaxDim rows or columns are rejected.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 1 || rows > MaxDim || cols < 1 || cols > MaxDim {
		panic(fmt.Sprintf("core: matrix shape %dx%d outside 1..%d", rows, cols, MaxDim))
	}
	// One block holds the validity planes and room for a port-row plane
	// per row, which SyncRowMeta fills without allocating.
	planes := make([]uint64, 2*rows+cols)
	m := &Matrix{
		Rows:       rows,
		Cols:       cols,
		RowPort:    make([]int8, rows),
		RowNetwork: make([]bool, rows),
		cells:      make([]Cell, rows*cols),
		rowValid:   planes[:rows:rows],
		colReq:     planes[rows : rows+cols : rows+cols],
		portRows:   planes[rows+cols : rows+cols],
	}
	for i := range m.RowPort {
		m.RowPort[i] = int8(i)
	}
	m.SyncRowMeta()
	return m
}

// RouterRows and RouterCols give the 21364 shape: 8 input ports x 2 read
// ports, 7 output ports.
const (
	RouterRows = 16
	RouterCols = 7
)

// NewRouterMatrix returns an empty 16x7 matrix shaped like the 21364:
// row 2p and 2p+1 are read ports 0 and 1 of input port p, and input ports
// 0-3 (rows 0-7) are the network ports (north, south, east, west).
func NewRouterMatrix() *Matrix {
	m := NewMatrix(RouterRows, RouterCols)
	for i := 0; i < RouterRows; i++ {
		m.RowPort[i] = int8(i / 2)
		m.RowNetwork[i] = i < 8
	}
	m.SyncRowMeta()
	return m
}

// SyncRowMeta recomputes the row-port and network-row masks from RowPort
// and RowNetwork. The constructors call it; call it again after mutating
// either slice directly.
func (m *Matrix) SyncRowMeta() {
	ports := 0
	for _, p := range m.RowPort {
		if int(p)+1 > ports {
			ports = int(p) + 1
		}
	}
	if cap(m.portRows) < ports {
		m.portRows = make([]uint64, ports)
	}
	m.portRows = m.portRows[:ports]
	for p := range m.portRows {
		m.portRows[p] = 0
	}
	m.netRows = 0
	for r := 0; r < m.Rows; r++ {
		m.portRows[m.RowPort[r]] |= 1 << uint(r)
		if m.RowNetwork[r] {
			m.netRows |= 1 << uint(r)
		}
	}
}

// Reset clears all cells, keeping the shape and row metadata. Only cells
// the validity masks mark are touched, so clearing a sparse matrix costs
// its population, not its area.
func (m *Matrix) Reset() {
	for r, w := range m.rowValid {
		if w == 0 {
			continue
		}
		base := r * m.Cols
		for ; w != 0; w &= w - 1 {
			m.cells[base+bits.TrailingZeros64(w)].Valid = false
		}
		m.rowValid[r] = 0
	}
	for c := range m.colReq {
		m.colReq[c] = 0
	}
}

// Set fills the cell at (row, col).
func (m *Matrix) Set(row, col int, age int64, key uint64, payload int32) {
	m.cells[row*m.Cols+col] = Cell{Valid: true, Age: age, Key: key, Payload: payload}
	m.rowValid[row] |= 1 << uint(col)
	m.colReq[col] |= 1 << uint(row)
}

// SetMany fills every cell of row named by cols (a column bitmask) with
// the same packet — the builder fast path for a packet nominated to all
// its candidate outputs at once.
func (m *Matrix) SetMany(row int, cols uint64, age int64, key uint64, payload int32) {
	base := row * m.Cols
	m.rowValid[row] |= cols
	for w := cols; w != 0; w &= w - 1 {
		col := bits.TrailingZeros64(w)
		m.cells[base+col] = Cell{Valid: true, Age: age, Key: key, Payload: payload}
		m.colReq[col] |= 1 << uint(row)
	}
}

// Clear invalidates the cell at (row, col).
func (m *Matrix) Clear(row, col int) {
	m.cells[row*m.Cols+col].Valid = false
	m.rowValid[row] &^= 1 << uint(col)
	m.colReq[col] &^= 1 << uint(row)
}

// At returns the cell at (row, col).
func (m *Matrix) At(row, col int) Cell { return m.cells[row*m.Cols+col] }

// RowMask returns the validity word of a row: bit c set ⇔ cell (row, c)
// is valid.
func (m *Matrix) RowMask(row int) uint64 { return m.rowValid[row] }

// PortRowMask returns the mask of rows belonging to an input port.
func (m *Matrix) PortRowMask(port int) uint64 { return m.portRows[port] }

// Ports returns the number of input ports the row metadata names
// (max RowPort + 1).
func (m *Matrix) Ports() int { return len(m.portRows) }

// ValidCount returns the number of valid cells (nominations).
func (m *Matrix) ValidCount() int {
	n := 0
	for _, w := range m.rowValid {
		n += bits.OnesCount64(w)
	}
	return n
}

// Validate checks the builder invariants: a packet key appears in at most
// one row and at most two columns. It is intended for tests and debug
// builds; it returns an error rather than panicking.
func (m *Matrix) Validate() error {
	rowOf := make(map[uint64]int)
	count := make(map[uint64]int)
	for r := 0; r < m.Rows; r++ {
		base := r * m.Cols
		for w := m.rowValid[r]; w != 0; w &= w - 1 {
			cell := m.cells[base+bits.TrailingZeros64(w)]
			if prev, ok := rowOf[cell.Key]; ok && prev != r {
				return fmt.Errorf("core: packet %d nominated by rows %d and %d", cell.Key, prev, r)
			}
			rowOf[cell.Key] = r
			count[cell.Key]++
			if count[cell.Key] > 2 {
				return fmt.Errorf("core: packet %d nominated to more than two columns", cell.Key)
			}
		}
	}
	return nil
}

// Grant is one (row, column) match chosen by an arbitration algorithm.
type Grant struct {
	Row, Col int
	Cell     Cell
}

// Arbiter is an arbitration algorithm. Arbitrate returns a matching: at
// most one grant per row and per column, each on a valid cell. Arbiters
// carry their own prioritization state (round-robin pointers, LRS
// matrices, RNG) across calls.
//
// Arbitrate must not modify m. A caller may keep one matrix across calls
// and repair only the cells its queues changed, as the standalone model
// does, so a cell an arbiter cleared or rewrote would corrupt every later
// call.
//
// To keep the per-cycle hot path allocation-free, implementations return
// an internally reused slice: the grants are valid only until the next
// Arbitrate call on the same arbiter. Callers that need to retain them
// must copy. The slice and any scratch are sized once to the matrix, on
// the first call or by Reserve.
type Arbiter interface {
	Name() string
	Arbitrate(m *Matrix) []Grant
}

// reserver is an Arbiter whose scratch Reserve can size ahead of time.
type reserver interface {
	reserve(m *Matrix)
}

// Reserve sizes a's grant slice and scratch for matrices shaped like m,
// as its first Arbitrate on m would, so a caller that builds an arbiter
// once per run (the timing router) pays for them while it is built. It
// changes no arbitration state. Only the arbiters the timing router runs,
// PIM and WFA, implement it; the others size on their first call.
func Reserve(a Arbiter, m *Matrix) {
	if r, ok := a.(reserver); ok {
		r.reserve(m)
	}
}

// sizeGrants returns g emptied, with room for a maximal matching on m,
// min(Rows, Cols) grants: one allocation the first time, none after.
func sizeGrants(g []Grant, m *Matrix) []Grant {
	if n := min(m.Rows, m.Cols); cap(g) < n {
		return make([]Grant, 0, n)
	}
	return g[:0]
}

// CheckMatching verifies that grants form a matching over valid cells of m
// and that each grant carries its cell unchanged, since a caller reads the
// granted packet from the cell; it is used by tests and by the simulator's
// self-checks.
func CheckMatching(m *Matrix, grants []Grant) error {
	var rowUsed, colUsed uint64
	for _, g := range grants {
		if g.Row < 0 || g.Row >= m.Rows || g.Col < 0 || g.Col >= m.Cols {
			return fmt.Errorf("core: grant (%d,%d) out of range", g.Row, g.Col)
		}
		if m.rowValid[g.Row]&(1<<uint(g.Col)) == 0 {
			return fmt.Errorf("core: grant (%d,%d) on invalid cell", g.Row, g.Col)
		}
		if c := m.At(g.Row, g.Col); g.Cell != c {
			return fmt.Errorf("core: grant (%d,%d) carries %+v, the cell holds %+v", g.Row, g.Col, g.Cell, c)
		}
		if rowUsed&(1<<uint(g.Row)) != 0 {
			return fmt.Errorf("core: row %d granted twice", g.Row)
		}
		if colUsed&(1<<uint(g.Col)) != 0 {
			return fmt.Errorf("core: column %d granted twice", g.Col)
		}
		rowUsed |= 1 << uint(g.Row)
		colUsed |= 1 << uint(g.Col)
	}
	return nil
}
