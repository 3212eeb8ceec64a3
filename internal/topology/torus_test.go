package topology

import (
	"testing"
	"testing/quick"
)

func TestCoordRoundTrip(t *testing.T) {
	tor := NewTorus(8, 8)
	for n := Node(0); n < Node(tor.Nodes()); n++ {
		if got := tor.Node(tor.Coord(n)); got != n {
			t.Fatalf("round trip %d -> %v -> %d", n, tor.Coord(n), got)
		}
	}
}

func TestNeighborWrap(t *testing.T) {
	tor := NewTorus(4, 4)
	cases := []struct {
		n    Node
		d    Dir
		want Node
	}{
		{0, North, 12}, // wrap to bottom row
		{0, West, 3},   // wrap to right column
		{15, South, 3}, // wrap to top row
		{15, East, 12}, // wrap to left column
		{5, East, 6},
		{5, South, 9},
	}
	for _, c := range cases {
		if got := tor.Neighbor(c.n, c.d); got != c.want {
			t.Errorf("Neighbor(%d, %v) = %d, want %d", c.n, c.d, got, c.want)
		}
	}
}

func TestNeighborOppositeInverse(t *testing.T) {
	tor := NewTorus(8, 4)
	f := func(n uint8, d uint8) bool {
		node := Node(int(n) % tor.Nodes())
		dir := Dir(d % uint8(NumDirs))
		return tor.Neighbor(tor.Neighbor(node, dir), dir.Opposite()) == node
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceSymmetricAndBounded(t *testing.T) {
	tor := NewTorus(8, 8)
	f := func(a, b uint8) bool {
		x := Node(int(a) % tor.Nodes())
		y := Node(int(b) % tor.Nodes())
		d := tor.Distance(x, y)
		if d != tor.Distance(y, x) {
			return false
		}
		return d >= 0 && d <= tor.Width/2+tor.Height/2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceTriangle(t *testing.T) {
	tor := NewTorus(4, 4)
	f := func(a, b, c uint8) bool {
		x := Node(int(a) % 16)
		y := Node(int(b) % 16)
		z := Node(int(c) % 16)
		return tor.Distance(x, z) <= tor.Distance(x, y)+tor.Distance(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProductiveDirsReduceDistance(t *testing.T) {
	tor := NewTorus(8, 8)
	f := func(a, b uint8) bool {
		src := Node(int(a) % tor.Nodes())
		dst := Node(int(b) % tor.Nodes())
		r := tor.Route(src, dst)
		if src == dst {
			return r.NDirs == 0
		}
		if r.NDirs == 0 || r.NDirs > 2 {
			return false
		}
		for _, d := range r.Dirs[:r.NDirs] {
			next := tor.Neighbor(src, d)
			if tor.Distance(next, dst) != tor.Distance(src, dst)-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProductiveDirsCount(t *testing.T) {
	tor := NewTorus(4, 4)
	// Same row: one direction. Diagonal: two, X first.
	if r := tor.Route(0, 1); r.NDirs != 1 || r.Dirs[0] != East {
		t.Errorf("same-row route = %+v", r)
	}
	if r := tor.Route(0, 5); r.NDirs != 2 || r.Dirs != [2]Dir{East, South} {
		t.Errorf("diagonal route = %+v, want dirs east and south", r)
	}
}

func TestDORFollowsDimensionOrder(t *testing.T) {
	tor := NewTorus(8, 8)
	f := func(a, b uint8) bool {
		src := Node(int(a) % tor.Nodes())
		dst := Node(int(b) % tor.Nodes())
		cur := src
		hops := 0
		sawY := false
		for cur != dst {
			r := tor.Route(cur, dst)
			if !r.EscapeOK {
				return false
			}
			// X must be fully resolved before Y moves begin.
			if d := r.Escape; d == East || d == West {
				if sawY {
					return false
				}
			} else {
				sawY = true
			}
			cur = tor.Neighbor(cur, r.Escape)
			hops++
			if hops > tor.Width+tor.Height {
				return false // not minimal / diverged
			}
		}
		return hops == tor.Distance(src, dst)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDORAtDestination(t *testing.T) {
	tor := NewTorus(4, 4)
	if r := tor.Route(5, 5); r != (Route{}) {
		t.Errorf("route at the destination = %+v, want the empty route", r)
	}
}

// TestWrapsAheadOncePerDimension checks the deadlock-freedom precondition of
// the two-channel dateline scheme: along any minimal dimension-order path,
// Route's Dateline flag transitions from true to false at most once per
// dimension and never back.
func TestWrapsAheadOncePerDimension(t *testing.T) {
	tor := NewTorus(8, 8)
	f := func(a, b uint8) bool {
		src := Node(int(a) % tor.Nodes())
		dst := Node(int(b) % tor.Nodes())
		cur := src
		transitions := 0
		prev := false
		first := true
		for cur != dst {
			r := tor.Route(cur, dst)
			if !first && r.Dateline && !prev {
				transitions++ // false -> true would be a re-wrap
			}
			prev, first = r.Dateline, false
			cur = tor.Neighbor(cur, r.Escape)
		}
		// A fresh dimension may start with wrap ahead, so allow one
		// transition when the path turns from X to Y.
		return transitions <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWrapsAheadRing(t *testing.T) {
	tor := NewTorus(8, 8)
	// From x=6 to x=1 the escape hop goes east and wraps; from x=1 to x=6
	// it goes west and wraps; from x=1 to x=3 it goes east and does not.
	n := tor.Node(Coord{6, 0})
	d := tor.Node(Coord{1, 0})
	if r := tor.Route(n, d); r.Escape != East || !r.Dateline {
		t.Errorf("6->1 route = %+v, want east with the wrap link ahead", r)
	}
	if r := tor.Route(d, n); r.Escape != West || !r.Dateline {
		t.Errorf("1->6 route = %+v, want west with the wrap link ahead", r)
	}
	if r := tor.Route(d, tor.Node(Coord{3, 0})); r.Escape != East || r.Dateline {
		t.Errorf("1->3 route = %+v, want east with no wrap link ahead", r)
	}
}

// wrapsOnWalk walks from cur toward dst in direction d until the
// coordinate of d's dimension matches dst's, and reports whether a hop
// crosses that dimension's wrap link: a step east or south that lowers
// the coordinate, or one west or north that raises it.
func wrapsOnWalk(tor Torus, cur, dst Node, d Dir) bool {
	axis := func(n Node) int {
		c := tor.Coord(n)
		if d == East || d == West {
			return c.X
		}
		return c.Y
	}
	wrapped := false
	for n, hops := cur, 0; axis(n) != axis(dst); hops++ {
		if hops > tor.Width+tor.Height {
			panic("walk never reaches dst's coordinate")
		}
		next := tor.Neighbor(n, d)
		if forward := d == East || d == South; forward == (axis(next) < axis(n)) {
			wrapped = true
		}
		n = next
	}
	return wrapped
}

// TestWrapsAheadMatchesWalk pins the dateline rule the router's escape
// sub-channel follows: a packet takes VC1 exactly when the remaining path
// in its dimension-order direction still crosses the wrap link, and VC0
// once it has crossed it or when it never will. Every (cur, dst) pair is
// checked on square, odd and rectangular tori.
func TestWrapsAheadMatchesWalk(t *testing.T) {
	for _, size := range [][2]int{{2, 2}, {3, 3}, {5, 3}, {8, 8}} {
		tor := NewTorus(size[0], size[1])
		for cur := Node(0); int(cur) < tor.Nodes(); cur++ {
			for dst := Node(0); int(dst) < tor.Nodes(); dst++ {
				r := tor.Route(cur, dst)
				if !r.EscapeOK {
					continue
				}
				if want := wrapsOnWalk(tor, cur, dst, r.Escape); r.Dateline != want {
					t.Errorf("%dx%d: Route(%v, %v) = %+v, walk crosses the wrap link: %v",
						size[0], size[1], tor.Coord(cur), tor.Coord(dst), r, want)
				}
			}
		}
	}
}

func TestBitReversal(t *testing.T) {
	tor := NewTorus(4, 4) // 16 nodes, 4 bits
	cases := map[Node]Node{
		0x0: 0x0,
		0x1: 0x8, // 0001 -> 1000
		0x3: 0xC, // 0011 -> 1100
		0x5: 0xA, // 0101 -> 1010
		0xF: 0xF,
	}
	for n, want := range cases {
		if got := tor.BitReversal(n); got != want {
			t.Errorf("BitReversal(%#x) = %#x, want %#x", n, got, want)
		}
	}
}

func TestBitReversalInvolution(t *testing.T) {
	tor := NewTorus(8, 8)
	f := func(a uint8) bool {
		n := Node(int(a) % tor.Nodes())
		return tor.BitReversal(tor.BitReversal(n)) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPerfectShuffle(t *testing.T) {
	tor := NewTorus(4, 4)
	cases := map[Node]Node{
		0x0: 0x0,
		0x8: 0x1, // 1000 -> 0001
		0x5: 0xA, // 0101 -> 1010
		0xC: 0x9, // 1100 -> 1001
		0xF: 0xF,
	}
	for n, want := range cases {
		if got := tor.PerfectShuffle(n); got != want {
			t.Errorf("PerfectShuffle(%#x) = %#x, want %#x", n, got, want)
		}
	}
}

func TestPerfectShuffleIsPermutation(t *testing.T) {
	tor := NewTorus(8, 8)
	seen := make(map[Node]bool)
	for n := Node(0); n < Node(tor.Nodes()); n++ {
		d := tor.PerfectShuffle(n)
		if seen[d] {
			t.Fatalf("PerfectShuffle maps two nodes to %d", d)
		}
		seen[d] = true
	}
}

func TestBitPatternsRejectNonPowerOfTwo(t *testing.T) {
	tor := NewTorus(12, 12)
	if _, ok := tor.BitWidth(); ok {
		t.Fatal("12x12 should not report power-of-two bit width")
	}
	defer func() {
		if recover() == nil {
			t.Error("BitReversal on 12x12 should panic")
		}
	}()
	tor.BitReversal(3)
}

func TestNewTorusPanicsOnDegenerate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTorus(1, 4) should panic")
		}
	}()
	NewTorus(1, 4)
}

func TestTranspose(t *testing.T) {
	tor := NewTorus(4, 4)
	cases := map[Node]Node{
		0:  0,  // (0,0) -> (0,0)
		1:  4,  // (1,0) -> (0,1)
		7:  13, // (3,1) -> (1,3)
		15: 15,
	}
	for n, want := range cases {
		if got := tor.Transpose(n); got != want {
			t.Errorf("Transpose(%d) = %d, want %d", n, got, want)
		}
	}
	// Involution on square tori.
	for n := Node(0); n < Node(tor.Nodes()); n++ {
		if back := tor.Transpose(tor.Transpose(n)); back != n {
			t.Errorf("Transpose(Transpose(%d)) = %d", n, back)
		}
	}
}

func TestTornadoShift(t *testing.T) {
	tor := NewTorus(8, 8) // shift of ceil(8/2)-1 = 3 in each dimension
	if got := tor.Tornado(0); got != tor.Node(Coord{X: 3, Y: 3}) {
		t.Errorf("Tornado(0) = %d, want node (3,3)=%d", got, tor.Node(Coord{X: 3, Y: 3}))
	}
	// Every hop count is the same: just under half-way in each dimension.
	want := tor.Distance(0, tor.Tornado(0))
	for n := Node(0); n < Node(tor.Nodes()); n++ {
		if d := tor.Distance(n, tor.Tornado(n)); d != want {
			t.Errorf("Tornado(%d) travels %d hops, want %d", n, d, want)
		}
	}
}

func TestNeighborShiftIsOneHop(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {5, 3}} {
		tor := NewTorus(dims[0], dims[1])
		for n := Node(0); n < Node(tor.Nodes()); n++ {
			if d := tor.Distance(n, tor.NeighborShift(n)); d != 1 {
				t.Errorf("%dx%d NeighborShift(%d) is %d hops", dims[0], dims[1], n, d)
			}
		}
	}
}

func TestFixedShiftsArePermutations(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {5, 3}, {2, 8}} {
		tor := NewTorus(dims[0], dims[1])
		for name, perm := range map[string]func(Node) Node{
			"Tornado": tor.Tornado, "NeighborShift": tor.NeighborShift,
		} {
			seen := make(map[Node]bool)
			for n := Node(0); n < Node(tor.Nodes()); n++ {
				d := perm(n)
				if seen[d] {
					t.Fatalf("%dx%d %s maps two nodes to %d", dims[0], dims[1], name, d)
				}
				seen[d] = true
			}
		}
	}
}
