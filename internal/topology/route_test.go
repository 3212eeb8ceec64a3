package topology

import (
	"testing"
	"unsafe"
)

// The oracle below derives a route from three separate calls per (cur,
// dst) pair, each converting both ids to coordinates and reading the
// offsets afresh, as the router's routing did before Route composed it
// from ring steps. TestRouteMatchesThreeCallOracle pins Route to it.

// oracleProductiveDirs returns the directions that make progress toward
// dst inside the minimal rectangle, X before Y.
func oracleProductiveDirs(t Torus, cur, dst Node) (dirs [2]Dir, n int) {
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

// oracleDORDir returns the next direction under strict X-then-Y
// dimension-order routing, and ok=false when cur == dst.
func oracleDORDir(t Torus, cur, dst Node) (Dir, bool) {
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

// oracleWrapsAhead reports whether the remaining dimension-order path
// from cur to dst, moving in direction d, crosses the torus wrap edge.
func oracleWrapsAhead(t Torus, cur, dst Node, d Dir) bool {
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

// oracleRoute assembles the three calls into a Route.
func oracleRoute(t Torus, cur, dst Node) Route {
	var r Route
	dirs, n := oracleProductiveDirs(t, cur, dst)
	r.Dirs, r.NDirs = dirs, uint8(n)
	if d, ok := oracleDORDir(t, cur, dst); ok {
		r.Escape, r.EscapeOK = d, true
		r.Dateline = oracleWrapsAhead(t, cur, dst, d)
	}
	return r
}

// TestRouteMatchesThreeCallOracle compares Route with the three-call
// oracle for every (cur, dst) pair on every torus from 2x2 to 16x16,
// rectangular ones included, and RouteRow with Route for every cur.
func TestRouteMatchesThreeCallOracle(t *testing.T) {
	for w := 2; w <= 16; w++ {
		for h := 2; h <= 16; h++ {
			tor := NewTorus(w, h)
			row := make([]Route, tor.Nodes())
			for cur := Node(0); int(cur) < tor.Nodes(); cur++ {
				tor.RouteRow(cur, row)
				for dst := Node(0); int(dst) < tor.Nodes(); dst++ {
					got, want := tor.Route(cur, dst), oracleRoute(tor, cur, dst)
					if got != want {
						t.Fatalf("%dx%d: Route(%v, %v) = %+v, oracle %+v", w, h, tor.Coord(cur), tor.Coord(dst), got, want)
					}
					if row[dst] != got {
						t.Fatalf("%dx%d: RouteRow(%v)[%v] = %+v, Route %+v", w, h, tor.Coord(cur), tor.Coord(dst), row[dst], got)
					}
				}
			}
		}
	}
}

// TestRouteSize pins a Route at 6 bytes: every router holds one per node,
// so a timing point holds N² of them.
func TestRouteSize(t *testing.T) {
	if got := unsafe.Sizeof(Route{}); got != 6 {
		t.Errorf("a Route is %d bytes, want 6", got)
	}
}

// TestRouteRowAllocates pins RouteRow's cost to the ring steps: filling a
// caller's row allocates nothing.
func TestRouteRowAllocates(t *testing.T) {
	tor := NewTorus(16, 16)
	row := make([]Route, tor.Nodes())
	if allocs := testing.AllocsPerRun(10, func() { tor.RouteRow(37, row) }); allocs != 0 {
		t.Errorf("RouteRow allocates %.0f times, want 0", allocs)
	}
}

// FuzzRoute checks Route on any torus from 2x2 to 64x64 and any node
// pair: following the escape hop reaches dst in Distance hops, X before
// Y; every productive direction lowers Distance by one; the dateline flag
// is set exactly while the rest of the walk on the hop's ring still
// crosses the wrap link; and RouteRow agrees with Route for every
// destination of src.
func FuzzRoute(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint16(0), uint16(15))
	f.Add(uint8(8), uint8(8), uint16(6), uint16(1))
	f.Add(uint8(5), uint8(3), uint16(14), uint16(2))
	f.Add(uint8(2), uint8(64), uint16(1), uint16(127))
	f.Add(uint8(63), uint8(2), uint16(40), uint16(40))
	f.Fuzz(func(t *testing.T, w, h uint8, a, b uint16) {
		tor := NewTorus(2+int(w)%63, 2+int(h)%63)
		src, dst := Node(int(a)%tor.Nodes()), Node(int(b)%tor.Nodes())
		row := make([]Route, tor.Nodes())
		tor.RouteRow(src, row)
		for n := range row {
			if want := tor.Route(src, Node(n)); row[n] != want {
				t.Fatalf("%dx%d: RouteRow(%v)[%v] = %+v, Route %+v",
					tor.Width, tor.Height, tor.Coord(src), tor.Coord(Node(n)), row[n], want)
			}
		}
		hops, sawY := 0, false
		for cur := src; ; hops++ {
			r := tor.Route(cur, dst)
			dist := tor.Distance(cur, dst)
			if cur == dst {
				if r != (Route{}) {
					t.Fatalf("route at the destination %v = %+v, want the empty route", tor.Coord(dst), r)
				}
				break
			}
			if !r.EscapeOK || r.NDirs == 0 || r.NDirs > 2 {
				t.Fatalf("Route(%v, %v) = %+v: no escape hop or a bad direction count", tor.Coord(cur), tor.Coord(dst), r)
			}
			for _, d := range r.Dirs[:r.NDirs] {
				if got := tor.Distance(tor.Neighbor(cur, d), dst); got != dist-1 {
					t.Fatalf("Route(%v, %v) = %+v: productive %v leaves %d hops, want %d",
						tor.Coord(cur), tor.Coord(dst), r, d, got, dist-1)
				}
			}
			if r.Escape != r.Dirs[0] {
				t.Fatalf("Route(%v, %v) = %+v: the escape hop is not the first productive direction", tor.Coord(cur), tor.Coord(dst), r)
			}
			if x := r.Escape == East || r.Escape == West; !x {
				sawY = true
			} else if sawY {
				t.Fatalf("Route(%v, %v) = %+v: an X hop after a Y hop", tor.Coord(cur), tor.Coord(dst), r)
			}
			if want := wrapsOnWalk(tor, cur, dst, r.Escape); r.Dateline != want {
				t.Fatalf("Route(%v, %v) = %+v, the rest of the walk crosses the wrap link: %v",
					tor.Coord(cur), tor.Coord(dst), r, want)
			}
			if hops > tor.Distance(src, dst) {
				t.Fatalf("the escape walk from %v to %v takes more than %d hops", tor.Coord(src), tor.Coord(dst), tor.Distance(src, dst))
			}
			cur = tor.Neighbor(cur, r.Escape)
		}
		if want := tor.Distance(src, dst); hops != want {
			t.Fatalf("the escape walk from %v to %v takes %d hops, Distance %d", tor.Coord(src), tor.Coord(dst), hops, want)
		}
	})
}
