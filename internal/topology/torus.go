// Package topology models the Alpha 21364's two-dimensional torus: node
// coordinates, wrap-around distances, the minimal ("minimum") rectangle
// used by the 21364's adaptive routing, strict dimension-order routing for
// the deadlock-free virtual channels, and the destination permutations used
// by the paper's synthetic traffic patterns.
package topology

import "fmt"

// Dir is one of the four interprocessor link directions.
type Dir uint8

const (
	North Dir = iota // -Y
	South            // +Y
	East             // +X
	West             // -X
	NumDirs
)

var dirNames = [NumDirs]string{"north", "south", "east", "west"}

func (d Dir) String() string {
	if d < NumDirs {
		return dirNames[d]
	}
	return fmt.Sprintf("Dir(%d)", uint8(d))
}

// Opposite returns the reverse direction (the direction a packet arriving
// on this output port travels back on).
func (d Dir) Opposite() Dir {
	switch d {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	default:
		return East
	}
}

// Node identifies a processor/router in the torus; ids are y*Width + x.
type Node int

// Coord is a torus position.
type Coord struct{ X, Y int }

// Torus is a W x H two-dimensional torus. The 21364 supports up to 128
// processors; the paper evaluates 4x4, 8x8, and (as a scaling study) 12x12.
type Torus struct {
	Width, Height int
}

// NewTorus returns a torus of the given dimensions. Width and height must
// each be at least 2 (a wrap link to itself is not meaningful).
func NewTorus(w, h int) Torus {
	if w < 2 || h < 2 {
		panic(fmt.Sprintf("topology: torus dimensions must be >= 2, got %dx%d", w, h))
	}
	return Torus{Width: w, Height: h}
}

// Nodes returns the number of nodes in the torus.
func (t Torus) Nodes() int { return t.Width * t.Height }

// Coord converts a node id to its coordinates.
func (t Torus) Coord(n Node) Coord {
	return Coord{X: int(n) % t.Width, Y: int(n) / t.Width}
}

// Node converts coordinates (taken modulo the torus dimensions) to an id.
func (t Torus) Node(c Coord) Node {
	x := mod(c.X, t.Width)
	y := mod(c.Y, t.Height)
	return Node(y*t.Width + x)
}

func mod(a, n int) int {
	m := a % n
	if m < 0 {
		m += n
	}
	return m
}

// Neighbor returns the adjacent node in direction d.
func (t Torus) Neighbor(n Node, d Dir) Node {
	c := t.Coord(n)
	switch d {
	case North:
		c.Y--
	case South:
		c.Y++
	case East:
		c.X++
	case West:
		c.X--
	}
	return t.Node(c)
}

// offset1 returns the minimal signed offset from a to b on a ring of size n,
// in the range [-(n-1)/2, n/2]. When the distance is exactly n/2 both
// directions are minimal; we canonically return +n/2 (the positive
// direction), which keeps the minimal rectangle well defined.
func offset1(a, b, n int) int {
	d := mod(b-a, n)
	if d > n/2 {
		d -= n
	}
	return d
}

// Offset returns the minimal signed (dx, dy) from src to dst.
func (t Torus) Offset(src, dst Node) (dx, dy int) {
	sc, dc := t.Coord(src), t.Coord(dst)
	return offset1(sc.X, dc.X, t.Width), offset1(sc.Y, dc.Y, t.Height)
}

// Distance returns the minimal hop count from src to dst.
func (t Torus) Distance(src, dst Node) int {
	dx, dy := t.Offset(src, dst)
	return abs(dx) + abs(dy)
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

// ProductiveDirs returns the directions that make progress toward dst
// inside the minimal rectangle: zero directions if cur == dst, one if the
// remaining offset is along a single dimension, otherwise two. These are
// the (at most two) output-port choices the 21364's adaptive routing
// permits a packet.
func (t Torus) ProductiveDirs(cur, dst Node) []Dir {
	fixed, n := t.ProductiveDirsFixed(cur, dst)
	return append(make([]Dir, 0, 2), fixed[:n]...)
}

// ProductiveDirsFixed is ProductiveDirs without the slice allocation: it
// returns the (at most two) productive directions in a fixed array plus
// the count. The router's per-scan routing loop uses it, so it must not
// allocate.
func (t Torus) ProductiveDirsFixed(cur, dst Node) (dirs [2]Dir, n int) {
	dx, dy := t.Offset(cur, dst)
	switch {
	case dx > 0:
		dirs[n] = East
		n++
	case dx < 0:
		dirs[n] = West
		n++
	}
	switch {
	case dy > 0:
		dirs[n] = South
		n++
	case dy < 0:
		dirs[n] = North
		n++
	}
	return dirs, n
}

// DORDir returns the next direction under strict X-then-Y dimension-order
// routing, used by the deadlock-free channels VC0/VC1. It returns ok=false
// when cur == dst.
func (t Torus) DORDir(cur, dst Node) (Dir, bool) {
	dx, dy := t.Offset(cur, dst)
	switch {
	case dx > 0:
		return East, true
	case dx < 0:
		return West, true
	case dy > 0:
		return South, true
	case dy < 0:
		return North, true
	}
	return North, false
}

// WrapsAhead reports whether the remaining dimension-order path from cur to
// dst, moving in direction d, crosses the torus wrap edge. It is the
// dateline rule of Dally's two-channel scheme as the router applies it:
// a packet uses VC1 exactly when the wrap edge lies ahead on its
// remaining path in the routing dimension, and VC0 once it has crossed
// the edge or when its path never does.
func (t Torus) WrapsAhead(cur, dst Node, d Dir) bool {
	cc, dc := t.Coord(cur), t.Coord(dst)
	switch d {
	case East:
		return dc.X < cc.X
	case West:
		return dc.X > cc.X
	case South:
		return dc.Y < cc.Y
	case North:
		return dc.Y > cc.Y
	}
	return false
}

// BitWidth returns the number of bits needed for node ids, and ok=false if
// the node count is not a power of two (the paper's bit-permutation traffic
// patterns are defined only for power-of-two machines).
func (t Torus) BitWidth() (int, bool) {
	n := t.Nodes()
	bits := 0
	for 1<<bits < n {
		bits++
	}
	return bits, 1<<bits == n
}

// BitReversal returns the bit-reversal destination of node n:
// (a_{k-1} ... a_1 a_0) -> (a_0 a_1 ... a_{k-1}).
func (t Torus) BitReversal(n Node) Node {
	bits, ok := t.BitWidth()
	if !ok {
		panic("topology: bit-reversal requires a power-of-two node count")
	}
	v := uint(n)
	var r uint
	for i := 0; i < bits; i++ {
		r = r<<1 | (v & 1)
		v >>= 1
	}
	return Node(r)
}

// PerfectShuffle returns the perfect-shuffle destination of node n:
// (a_{k-1} a_{k-2} ... a_1 a_0) -> (a_{k-2} ... a_0 a_{k-1}), i.e. a left
// rotation of the bit coordinates.
func (t Torus) PerfectShuffle(n Node) Node {
	bits, ok := t.BitWidth()
	if !ok {
		panic("topology: perfect-shuffle requires a power-of-two node count")
	}
	v := uint(n)
	top := (v >> uint(bits-1)) & 1
	return Node(((v << 1) | top) & ((1 << uint(bits)) - 1))
}

// Transpose returns the matrix-transpose destination of node n:
// (x, y) -> (y, x). On a square torus this is a bijection (the classic
// worst case for dimension-order routing); on a rectangular torus the
// swapped coordinates wrap modulo the dimensions and the map may collide.
func (t Torus) Transpose(n Node) Node {
	c := t.Coord(n)
	return t.Node(Coord{X: c.Y, Y: c.X})
}

// Tornado returns the tornado destination of node n: a fixed shift of
// ceil(W/2)-1 hops east and ceil(H/2)-1 hops south, so every packet
// travels just under half-way around each ring — the adversarial pattern
// for torus wrap-link load balance. A fixed shift is a bijection on any
// torus.
func (t Torus) Tornado(n Node) Node {
	c := t.Coord(n)
	return t.Node(Coord{X: c.X + (t.Width+1)/2 - 1, Y: c.Y + (t.Height+1)/2 - 1})
}

// NeighborShift returns the nearest-neighbor destination of node n: one
// hop east, (x, y) -> (x+1, y). It is a bijection on any torus and the
// best case for locality (every packet crosses exactly one link).
func (t Torus) NeighborShift(n Node) Node {
	c := t.Coord(n)
	return t.Node(Coord{X: c.X + 1, Y: c.Y})
}
