package workload

import (
	"strings"
	"testing"

	"alpha21364/internal/sim"
	"alpha21364/internal/topology"
)

// allPatterns builds every named pattern on the torus, skipping the
// bit-permutation patterns when the node count is not a power of two.
func allPatterns(t *testing.T, torus topology.Torus) []Pattern {
	t.Helper()
	_, pow2 := torus.BitWidth()
	var out []Pattern
	for _, name := range PatternNames() {
		if !pow2 && (name == "bit-reversal" || name == "perfect-shuffle") {
			continue
		}
		p, err := NewPattern(name, torus)
		if err != nil {
			t.Fatalf("NewPattern(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("NewPattern(%q).Name() = %q", name, p.Name())
		}
		out = append(out, p)
	}
	return out
}

// TestPatternsInRange is the basic safety property: every pattern maps
// every source to a node inside the torus, on square, rectangular,
// power-of-two, and odd-sized machines.
func TestPatternsInRange(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {8, 8}, {2, 8}, {5, 3}, {7, 2}} {
		torus := topology.NewTorus(dims[0], dims[1])
		rng := sim.NewRNG(11)
		for _, p := range allPatterns(t, torus) {
			for src := 0; src < torus.Nodes(); src++ {
				for draw := 0; draw < 8; draw++ {
					d := p.Dest(topology.Node(src), rng)
					if int(d) < 0 || int(d) >= torus.Nodes() {
						t.Fatalf("%dx%d %s: Dest(%d) = %d outside [0, %d)",
							dims[0], dims[1], p.Name(), src, d, torus.Nodes())
					}
				}
			}
		}
	}
}

// TestPermutationBijections checks that the deterministic patterns are
// bijections where they promise to be: bit-reversal and perfect-shuffle
// on power-of-two tori, transpose on square tori, tornado and neighbor on
// every torus.
func TestPermutationBijections(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {8, 8}, {2, 8}, {5, 3}, {6, 4}} {
		torus := topology.NewTorus(dims[0], dims[1])
		_, pow2 := torus.BitWidth()
		square := dims[0] == dims[1]
		var perms []Pattern
		if pow2 {
			perms = append(perms, NewBitReversal(torus), NewPerfectShuffle(torus))
		}
		if square {
			perms = append(perms, NewTranspose(torus))
		}
		perms = append(perms, NewTornado(torus), NewNeighbor(torus))
		for _, p := range perms {
			seen := make(map[topology.Node]topology.Node, torus.Nodes())
			for src := 0; src < torus.Nodes(); src++ {
				d := p.Dest(topology.Node(src), nil) // permutations must not draw
				if prev, dup := seen[d]; dup {
					t.Errorf("%dx%d %s: %d and %d both map to %d",
						dims[0], dims[1], p.Name(), prev, src, d)
				}
				seen[d] = topology.Node(src)
			}
			if len(seen) != torus.Nodes() {
				t.Errorf("%dx%d %s: image has %d of %d nodes",
					dims[0], dims[1], p.Name(), len(seen), torus.Nodes())
			}
		}
	}
}

// TestPermutationsAreStable pins the permutation images on a 4x4 torus so
// a silent change to a pattern (which would silently shift every figure)
// fails loudly.
func TestPermutationsAreStable(t *testing.T) {
	torus := topology.NewTorus(4, 4)
	for _, tc := range []struct {
		pattern Pattern
		want    []topology.Node
	}{
		{NewBitReversal(torus), []topology.Node{0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15}},
		{NewPerfectShuffle(torus), []topology.Node{0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15}},
		{NewTranspose(torus), []topology.Node{0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15}},
		{NewTornado(torus), []topology.Node{5, 6, 7, 4, 9, 10, 11, 8, 13, 14, 15, 12, 1, 2, 3, 0}},
		{NewNeighbor(torus), []topology.Node{1, 2, 3, 0, 5, 6, 7, 4, 9, 10, 11, 8, 13, 14, 15, 12}},
	} {
		for src, want := range tc.want {
			if got := tc.pattern.Dest(topology.Node(src), nil); got != want {
				t.Errorf("%s(%d) = %d, want %d", tc.pattern.Name(), src, got, want)
			}
		}
	}
}

func TestUniformAvoidsSelf(t *testing.T) {
	torus := topology.NewTorus(4, 4)
	p := NewUniform(torus)
	rng := sim.NewRNG(3)
	for i := 0; i < 2000; i++ {
		src := topology.Node(i % torus.Nodes())
		if d := p.Dest(src, rng); d == src {
			t.Fatalf("uniform drew src %d as its own destination", src)
		}
	}
}

func TestHotspotConcentratesTraffic(t *testing.T) {
	torus := topology.NewTorus(8, 8)
	target := topology.Node(27)
	h, err := NewHotspot(torus, []topology.Node{target}, nil, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(5)
	hits := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		if h.Dest(topology.Node(i%torus.Nodes()), rng) == target {
			hits++
		}
	}
	frac := float64(hits) / draws
	// 50% targeted plus the uniform share's occasional hits.
	if frac < 0.45 || frac > 0.58 {
		t.Errorf("hotspot fraction %.3f, want ~0.50", frac)
	}
}

func TestHotspotWeights(t *testing.T) {
	torus := topology.NewTorus(4, 4)
	targets := []topology.Node{1, 2}
	h, err := NewHotspot(torus, targets, []float64{3, 1}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(9)
	counts := map[topology.Node]int{}
	const draws = 40000
	for i := 0; i < draws; i++ {
		counts[h.Dest(0, rng)]++
	}
	if counts[1]+counts[2] != draws {
		t.Fatalf("fraction 1.0 leaked %d draws off the hotspots", draws-counts[1]-counts[2])
	}
	ratio := float64(counts[1]) / float64(counts[2])
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("weight ratio %.2f, want ~3.0", ratio)
	}
}

func TestHotspotValidation(t *testing.T) {
	torus := topology.NewTorus(4, 4)
	if _, err := NewHotspot(torus, nil, nil, 0.5); err == nil {
		t.Error("accepted empty targets")
	}
	if _, err := NewHotspot(torus, []topology.Node{99}, nil, 0.5); err == nil {
		t.Error("accepted out-of-torus target")
	}
	if _, err := NewHotspot(torus, []topology.Node{1}, nil, 1.5); err == nil {
		t.Error("accepted fraction > 1")
	}
	if _, err := NewHotspot(torus, []topology.Node{1}, []float64{-1}, 0.5); err == nil {
		t.Error("accepted negative weight")
	}
	if _, err := NewHotspot(torus, []topology.Node{1}, []float64{1, 2}, 0.5); err == nil {
		t.Error("accepted mismatched weights length")
	}
}

// TestPatternNamesRoundTrip: every listed name resolves to a pattern
// that reports the same name back.
func TestPatternNamesRoundTrip(t *testing.T) {
	torus := topology.NewTorus(4, 4)
	for _, name := range PatternNames() {
		p, err := NewPattern(name, torus)
		if err != nil || p.Name() != name {
			t.Errorf("NewPattern(%q) does not round-trip: %v", name, err)
		}
	}
}

func TestNewPatternAliasesAndErrors(t *testing.T) {
	torus := topology.NewTorus(4, 4)
	for alias, canon := range map[string]string{
		"uniform": "random", "UNIFORM": "random", "random": "random",
		"Shuffle": "perfect-shuffle", " Tornado ": "tornado",
	} {
		p, err := NewPattern(alias, torus)
		if err != nil {
			t.Errorf("NewPattern(%q): %v", alias, err)
			continue
		}
		if p.Name() != canon {
			t.Errorf("NewPattern(%q) = %q, want %q", alias, p.Name(), canon)
		}
	}
	_, err := NewPattern("zipf", torus)
	if err == nil {
		t.Fatal("accepted unknown pattern")
	}
	for _, name := range PatternNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

// TestNewPatternRejectsBitPatternsOnNonPowerOfTwo: construction must
// fail cleanly instead of panicking mid-simulation.
func TestNewPatternRejectsBitPatternsOnNonPowerOfTwo(t *testing.T) {
	torus := topology.NewTorus(5, 3)
	for _, name := range []string{"bit-reversal", "perfect-shuffle"} {
		if _, err := NewPattern(name, torus); err == nil {
			t.Errorf("NewPattern(%q) accepted a 15-node torus", name)
		}
	}
}
