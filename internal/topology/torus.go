// Package topology models the Alpha 21364's two-dimensional torus: node
// coordinates, wrap-around distances, the routing function, and the
// destination permutations used by the paper's synthetic traffic
// patterns.
//
// Route is the one routing function: the minimal ("minimum") rectangle
// that the 21364's adaptive routing may use, the strict dimension-order
// escape hop of the deadlock-free virtual channels, and the dateline rule
// that splits them into VC0 and VC1. The router fills its route row from
// it (RouteRow), and link-load ceilings and a channel-dependency proof of
// deadlock freedom are to enumerate the same function.
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

// Route is the 21364's routing decision at one router for a packet
// addressed to another node (§2.1). Dirs[:NDirs] are the productive
// directions, X before Y: the (at most two) ways toward the destination
// inside the minimal rectangle, which the adaptive channel may take.
// Escape is the next hop of strict X-then-Y dimension-order routing,
// which the deadlock-free channels VC0/VC1 take; EscapeOK is false only
// at the destination, where the route is empty. Dateline is Dally's
// two-channel dateline rule on Escape's ring: it is set while the rest of
// the walk along that ring still crosses the ring's wrap link (the packet
// takes VC1), and clear once the walk has crossed it or when it never
// does (VC0). A Route is 6 bytes.
type Route struct {
	Dirs     [2]Dir
	NDirs    uint8
	Escape   Dir
	EscapeOK bool
	Dateline bool
}

// Route returns the route at cur toward dst: one ring step per
// dimension, the X step extended by the Y step.
func (t Torus) Route(cur, dst Node) Route {
	cc, dc := t.Coord(cur), t.Coord(dst)
	return ring(cc.X, dc.X, t.Width, East, West).then(ring(cc.Y, dc.Y, t.Height, South, North))
}

// RouteRow fills row[dst] with Route(cur, dst) for every node dst, and
// panics if row holds fewer than Nodes() entries. It takes W + H - 1
// ring steps and no division per entry: the X steps fill the routes to
// cur's own row of the torus, the ones that stay on the X ring, and every
// other row extends them with its one Y step.
func (t Torus) RouteRow(cur Node, row []Route) {
	row = row[:t.Nodes()]
	c, w := t.Coord(cur), t.Width
	own := row[c.Y*w : c.Y*w+w]
	for x := range own {
		own[x] = ring(c.X, x, w, East, West)
	}
	for y := 0; y < t.Height; y++ {
		if y == c.Y {
			continue
		}
		step := ring(c.Y, y, t.Height, South, North)
		for x, r := range own {
			row[y*w+x] = r.then(step)
		}
	}
}

// ring returns the route along one ring of n nodes from coordinate a to
// b, both in [0, n): empty when a == b, otherwise one hop in offset1's
// minimal direction, pos (rising coordinates) or neg, so an offset of
// exactly n/2 goes the positive way. Dateline is set when the walk to b
// crosses the wrap link between coordinates n-1 and 0.
func ring(a, b, n int, pos, neg Dir) Route {
	switch d := offset1(a, b, n); {
	case d > 0:
		return Route{Dirs: [2]Dir{pos}, NDirs: 1, Escape: pos, EscapeOK: true, Dateline: b < a}
	case d < 0:
		return Route{Dirs: [2]Dir{neg}, NDirs: 1, Escape: neg, EscapeOK: true, Dateline: b > a}
	}
	return Route{}
}

// then extends x, a route along the X ring, with y, one along the Y ring:
// the productive directions of both, and x's escape hop unless x is empty,
// since dimension order resolves X before Y.
func (x Route) then(y Route) Route {
	switch {
	case y.NDirs == 0:
		return x
	case x.NDirs == 0:
		return y
	}
	x.Dirs[1], x.NDirs = y.Dirs[0], 2
	return x
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
