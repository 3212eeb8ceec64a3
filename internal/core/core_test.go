package core

import (
	"strings"
	"testing"
	"testing/quick"

	"alpha21364/internal/sim"
)

// fillRandom populates a router matrix with independent packets: each cell
// gets its own packet with probability density. Used for matching-property
// tests where cross-column packet identity doesn't matter.
func fillRandom(m *Matrix, rng *sim.RNG, density float64) {
	m.Reset()
	key := uint64(1)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			if rng.Bernoulli(density) {
				m.Set(r, c, int64(rng.Intn(1000)), key, 0)
				key++
			}
		}
	}
}

func allArbiters(rng *sim.RNG) []Arbiter {
	var out []Arbiter
	for k := Kind(0); k < NumKinds; k++ {
		out = append(out, New(k, rng.Split()))
	}
	return out
}

func TestAllArbitersProduceMatchings(t *testing.T) {
	rng := sim.NewRNG(1)
	arbs := allArbiters(rng)
	m := NewRouterMatrix()
	for trial := 0; trial < 200; trial++ {
		density := float64(trial%10) / 10
		fillRandom(m, rng, density)
		for _, a := range arbs {
			grants := a.Arbitrate(m)
			if err := CheckMatching(m, grants); err != nil {
				t.Fatalf("%s trial %d: %v", a.Name(), trial, err)
			}
		}
	}
}

// bruteForceMax computes the maximum matching size by exhaustive search
// over column assignments (columns <= 7, so 16^7 worst case is too big;
// recurse over columns picking any row or none with memo-free DFS on small
// matrices only).
func bruteForceMax(m *Matrix, col int, rowUsed []bool) int {
	if col == m.Cols {
		return 0
	}
	best := bruteForceMax(m, col+1, rowUsed) // leave this column unmatched
	for r := 0; r < m.Rows; r++ {
		if rowUsed[r] || !m.At(r, col).Valid {
			continue
		}
		rowUsed[r] = true
		if v := 1 + bruteForceMax(m, col+1, rowUsed); v > best {
			best = v
		}
		rowUsed[r] = false
	}
	return best
}

func TestMCMIsMaximum(t *testing.T) {
	rng := sim.NewRNG(2)
	mcm := NewMCM()
	for trial := 0; trial < 100; trial++ {
		m := NewMatrix(6, 5)
		fillRandom(m, rng, 0.4)
		got := len(mcm.Arbitrate(m))
		want := bruteForceMax(m, 0, make([]bool, m.Rows))
		if got != want {
			t.Fatalf("trial %d: MCM found %d matches, brute force %d", trial, got, want)
		}
	}
}

func TestMCMDominatesAll(t *testing.T) {
	rng := sim.NewRNG(3)
	arbs := allArbiters(rng)
	mcm := NewMCM()
	m := NewRouterMatrix()
	for trial := 0; trial < 100; trial++ {
		fillRandom(m, rng, 0.5)
		bound := len(mcm.Arbitrate(m))
		for _, a := range arbs {
			if got := len(a.Arbitrate(m)); got > bound {
				t.Fatalf("%s found %d matches, exceeding MCM's %d", a.Name(), got, bound)
			}
		}
	}
}

// TestWFAMaximal verifies the wave-front property: after evaluation, no
// valid cell has both its row and column free (every cell lies on some
// diagonal and is granted if unclaimed when its wave passes).
func TestWFAMaximal(t *testing.T) {
	rng := sim.NewRNG(4)
	for _, a := range []*WFA{NewWFA(), NewWFARotary()} {
		m := NewRouterMatrix()
		for trial := 0; trial < 100; trial++ {
			fillRandom(m, rng, 0.3)
			grants := a.Arbitrate(m)
			rowUsed := make([]bool, m.Rows)
			colUsed := make([]bool, m.Cols)
			for _, g := range grants {
				rowUsed[g.Row], colUsed[g.Col] = true, true
			}
			for r := 0; r < m.Rows; r++ {
				for c := 0; c < m.Cols; c++ {
					if m.At(r, c).Valid && !rowUsed[r] && !colUsed[c] {
						t.Fatalf("%s: matching not maximal, cell (%d,%d) addable", a.Name(), r, c)
					}
				}
			}
		}
	}
}

func TestWFADenseIsPerfect(t *testing.T) {
	m := NewRouterMatrix()
	rng := sim.NewRNG(5)
	fillRandom(m, rng, 1.0)
	if got := len(NewWFA().Arbitrate(m)); got != RouterCols {
		t.Fatalf("WFA on dense matrix found %d matches, want %d", got, RouterCols)
	}
}

func TestWFARotationIsFair(t *testing.T) {
	// Two rows permanently contesting one column: the rotating start must
	// let both win over repeated arbitrations.
	a := NewWFA()
	m := NewRouterMatrix()
	wins := map[int]int{}
	for i := 0; i < 32; i++ {
		m.Reset()
		m.Set(1, 0, 1, uint64(2*i+1), 0)
		m.Set(9, 0, 1, uint64(2*i+2), 0)
		for _, g := range a.Arbitrate(m) {
			if g.Col == 0 {
				wins[g.Row]++
			}
		}
	}
	if wins[1] == 0 || wins[9] == 0 {
		t.Fatalf("round-robin start never rotated the winner: %v", wins)
	}
}

func TestWFARotaryNetworkRowsWinContestedColumns(t *testing.T) {
	// A network row (0-7) and a local row (8-15) contest every column; under
	// the Rotary Rule the network row must always win.
	a := NewWFARotary()
	m := NewRouterMatrix()
	for i := 0; i < 32; i++ {
		m.Reset()
		for c := 0; c < RouterCols; c++ {
			m.Set(i%8, c, 1, uint64(100+c), 0)
			m.Set(8+i%8, c, 2, uint64(200+c), 0)
		}
		grants := a.Arbitrate(m)
		for _, g := range grants {
			if g.Row >= 8 && m.At(g.Row-8, g.Col).Valid {
				// Only acceptable if the network row was matched elsewhere.
				matched := false
				for _, g2 := range grants {
					if g2.Row == g.Row-8 {
						matched = true
					}
				}
				if !matched {
					t.Fatalf("local row %d won column %d over idle network row %d",
						g.Row, g.Col, g.Row-8)
				}
			}
		}
	}
}

func TestWFARotaryStillMaximalOverall(t *testing.T) {
	// The two-pass rotary wave must still produce a maximal matching.
	rng := sim.NewRNG(21)
	a := NewWFARotary()
	m := NewRouterMatrix()
	for trial := 0; trial < 100; trial++ {
		fillRandom(m, rng, 0.4)
		grants := a.Arbitrate(m)
		if err := CheckMatching(m, grants); err != nil {
			t.Fatal(err)
		}
		rowUsed := make([]bool, m.Rows)
		colUsed := make([]bool, m.Cols)
		for _, g := range grants {
			rowUsed[g.Row], colUsed[g.Col] = true, true
		}
		for r := 0; r < m.Rows; r++ {
			for c := 0; c < m.Cols; c++ {
				if m.At(r, c).Valid && !rowUsed[r] && !colUsed[c] {
					t.Fatalf("rotary WFA left addable cell (%d,%d)", r, c)
				}
			}
		}
	}
}

func TestPIMConvergesWithinIterations(t *testing.T) {
	// Full PIM (4 iterations on 16 arbiters) must produce a maximal
	// matching nearly always; check it is never worse than PIM1 on average
	// and always a valid matching.
	rng := sim.NewRNG(6)
	pim := NewPIM(PIMFullIterations, rng.Split())
	pim1 := NewPIM1(rng.Split())
	m := NewRouterMatrix()
	sumFull, sum1 := 0, 0
	for trial := 0; trial < 300; trial++ {
		fillRandom(m, rng, 0.6)
		sumFull += len(pim.Arbitrate(m))
		sum1 += len(pim1.Arbitrate(m))
	}
	if sumFull <= sum1 {
		t.Fatalf("PIM (4 iter) total %d not better than PIM1 total %d", sumFull, sum1)
	}
}

func TestPIMSingleRequestAlwaysGranted(t *testing.T) {
	rng := sim.NewRNG(7)
	pim1 := NewPIM1(rng)
	m := NewRouterMatrix()
	m.Set(5, 3, 10, 42, 0)
	grants := pim1.Arbitrate(m)
	if len(grants) != 1 || grants[0].Row != 5 || grants[0].Col != 3 {
		t.Fatalf("lone request not granted: %+v", grants)
	}
}

func TestSPAAOneNominationPerInputPort(t *testing.T) {
	rng := sim.NewRNG(8)
	a := NewSPAA()
	m := NewRouterMatrix()
	for trial := 0; trial < 50; trial++ {
		fillRandom(m, rng, 0.8)
		noms := a.Nominate(m)
		perPort := map[int8]int{}
		for _, n := range noms {
			perPort[m.RowPort[n.Row]]++
		}
		for port, n := range perPort {
			if n > 1 {
				t.Fatalf("input port %d made %d nominations, want at most 1", port, n)
			}
		}
	}
}

func TestSPAANominatesOldest(t *testing.T) {
	a := NewSPAA()
	m := NewRouterMatrix()
	// Give port 0 (rows 0,1) two packets; the older one (age 5) must win
	// regardless of read port.
	m.Set(0, 2, 10, 100, 0)
	m.Set(1, 4, 5, 101, 0)
	for i := 0; i < 4; i++ {
		noms := a.Nominate(m)
		found := false
		for _, n := range noms {
			if m.RowPort[n.Row] == 0 {
				found = true
				if n.Cell.Key != 101 {
					t.Fatalf("port 0 nominated key %d, want the older 101", n.Cell.Key)
				}
			}
		}
		if !found {
			t.Fatal("port 0 made no nomination")
		}
	}
}

func TestSPAAAlternatesDualColumns(t *testing.T) {
	a := NewSPAA()
	m := NewRouterMatrix()
	// One packet nominable to two columns (adaptive routing): successive
	// passes must alternate the chosen column.
	m.Set(2, 1, 7, 55, 0)
	m.Set(2, 3, 7, 55, 0)
	cols := map[int]int{}
	for i := 0; i < 10; i++ {
		noms := a.Nominate(m)
		for _, n := range noms {
			if n.Row == 2 {
				cols[n.Col]++
			}
		}
	}
	if cols[1] == 0 || cols[3] == 0 {
		t.Fatalf("dual-column packet never alternated: %v", cols)
	}
}

func TestSPAAGrantUsesLRS(t *testing.T) {
	a := NewSPAA()
	m := NewRouterMatrix()
	// Rows 0 and 2 (ports 0 and 1) always nominate column 0; LRS must
	// alternate grants between them.
	winners := map[int]int{}
	for i := 0; i < 10; i++ {
		m.Reset()
		m.Set(0, 0, 1, uint64(100+i), 0)
		m.Set(2, 0, 1, uint64(200+i), 0)
		noms := []Grant{
			{Row: 0, Col: 0, Cell: m.At(0, 0)},
			{Row: 2, Col: 0, Cell: m.At(2, 0)},
		}
		grants := a.Grant(m, noms)
		if len(grants) != 1 {
			t.Fatalf("want 1 grant, got %d", len(grants))
		}
		winners[grants[0].Row]++
	}
	if winners[0] != 5 || winners[2] != 5 {
		t.Fatalf("LRS did not alternate: %v", winners)
	}
}

func TestRotaryPolicyPrefersNetwork(t *testing.T) {
	p := NewGrantPolicy(RouterRows, RouterCols, true)
	// Candidates: row 10 (local) and row 3 (network). Network must always
	// win under the Rotary Rule.
	for i := 0; i < 20; i++ {
		w := p.Select(0, []int{10, 3}, []bool{false, true})
		if w != 1 {
			t.Fatalf("rotary grant chose local row over network row")
		}
	}
	// With only local candidates the policy falls back to LRS.
	w := p.Select(0, []int{10, 12}, []bool{false, false})
	if w != 0 && w != 1 {
		t.Fatalf("unexpected winner index %d", w)
	}
}

func TestGrantPolicyLRSFairness(t *testing.T) {
	p := NewGrantPolicy(4, 1, false)
	counts := make([]int, 4)
	rows := []int{0, 1, 2, 3}
	net := []bool{false, false, false, false}
	for i := 0; i < 400; i++ {
		counts[rows[p.Select(0, rows, net)]]++
	}
	for r, c := range counts {
		if c != 100 {
			t.Fatalf("LRS over constant contention gave row %d %d/400 grants", r, c)
		}
	}
}

func TestOPFFigure2Scenario(t *testing.T) {
	// The paper's Figure 2: 8 input ports, each with three queued packets.
	// Columns 2-4 of the figure list destinations, oldest first:
	dests := [8][3]int{
		{3, 2, 1}, {3, 2, 1}, {3, 2, 1}, {3, 2, 1},
		{3, 6, 1}, {3, 2, 0}, {3, 2, 4}, {3, 2, 5},
	}
	m := NewMatrix(8, 7) // one row per input port for this illustration
	key := uint64(1)
	for r, row := range dests {
		for age, d := range row {
			// Keep only the oldest packet per (row, dest) — later ones can't
			// be nominated ahead of an older one with the same target.
			if !m.At(r, d).Valid {
				m.Set(r, d, int64(age), key, 0)
			}
			key++
		}
	}
	// OPF nominates each port's oldest packet; all target output 3, so OPF
	// collapses to a single match (the arbitration collision of Figure 2).
	opf := NewOPF().Arbitrate(m)
	if len(opf) != 1 || opf[0].Col != 3 {
		t.Fatalf("OPF on Figure 2 = %d matches (want 1 at column 3): %+v", len(opf), opf)
	}
	// The shaded optimal selection delivers one packet per output port.
	mcm := NewMCM().Arbitrate(m)
	if len(mcm) != 7 {
		t.Fatalf("MCM on Figure 2 = %d matches, want 7", len(mcm))
	}
}

// TestMatchingCapabilityOrdering reproduces the standalone ordering the
// paper reports in Figure 8: on heavily loaded matrices,
// MCM ~ WFA > PIM1 > SPAA ~ OPF.
func TestMatchingCapabilityOrdering(t *testing.T) {
	rng := sim.NewRNG(9)
	mcm := NewMCM()
	wfa := NewWFA()
	pim := NewPIM(PIMFullIterations, rng.Split())
	pim1 := NewPIM1(rng.Split())
	spaa := NewSPAA()
	m := NewRouterMatrix()
	var sums [5]float64
	const trials = 500
	for trial := 0; trial < trials; trial++ {
		fillRandom(m, rng, 1.0)
		sums[0] += float64(len(mcm.Arbitrate(m)))
		sums[1] += float64(len(wfa.Arbitrate(m)))
		sums[2] += float64(len(pim.Arbitrate(m)))
		sums[3] += float64(len(pim1.Arbitrate(m)))
		sums[4] += float64(len(spaa.Arbitrate(m)))
	}
	for i := range sums {
		sums[i] /= trials
	}
	mcmAvg, wfaAvg, pimAvg, pim1Avg, spaaAvg := sums[0], sums[1], sums[2], sums[3], sums[4]
	if !(mcmAvg >= wfaAvg && wfaAvg >= pimAvg-0.2 && pimAvg > pim1Avg && pim1Avg > spaaAvg) {
		t.Fatalf("ordering violated: MCM=%.2f WFA=%.2f PIM=%.2f PIM1=%.2f SPAA=%.2f",
			mcmAvg, wfaAvg, pimAvg, pim1Avg, spaaAvg)
	}
	// The paper's saturation gap: MCM finds on the order of a third more
	// matches than SPAA when all outputs are free.
	if ratio := mcmAvg / spaaAvg; ratio < 1.2 || ratio > 1.6 {
		t.Errorf("MCM/SPAA match ratio = %.2f, expected roughly 1.36 (paper Fig 8)", ratio)
	}
}

func TestMatrixValidate(t *testing.T) {
	m := NewRouterMatrix()
	m.Set(0, 1, 1, 7, 0)
	m.Set(0, 2, 1, 7, 0) // same packet, two columns: legal (adaptive)
	if err := m.Validate(); err != nil {
		t.Fatalf("two-column nomination should be legal: %v", err)
	}
	m.Set(0, 3, 1, 7, 0) // three columns: illegal
	if err := m.Validate(); err == nil {
		t.Fatal("three-column nomination not caught")
	}
	m.Reset()
	m.Set(0, 1, 1, 7, 0)
	m.Set(5, 2, 1, 7, 0) // same packet on two rows: illegal
	if err := m.Validate(); err == nil {
		t.Fatal("cross-row duplicate not caught")
	}
}

func TestCheckMatchingCatchesViolations(t *testing.T) {
	m := NewRouterMatrix()
	m.Set(0, 0, 1, 1, 0)
	m.Set(0, 1, 1, 2, 0)
	m.Set(1, 0, 1, 3, 0)
	grant := func(row, col int) Grant { return Grant{Row: row, Col: col, Cell: m.At(row, col)} }
	for _, tc := range []struct {
		name   string
		grants []Grant
		err    string
	}{
		{"legal", []Grant{grant(0, 1), grant(1, 0)}, ""},
		{"duplicate row", []Grant{grant(0, 0), grant(0, 1)}, "row 0 granted twice"},
		{"duplicate column", []Grant{grant(0, 0), grant(1, 0)}, "column 0 granted twice"},
		{"invalid cell", []Grant{grant(5, 5)}, "invalid cell"},
		// A grant carrying another cell's packet would drain that packet.
		{"forged cell", []Grant{{Row: 0, Col: 0, Cell: m.At(0, 1)}}, "carries"},
	} {
		err := CheckMatching(m, tc.grants)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.err)
		}
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("nonsense"); err == nil {
		t.Error("ParseKind accepted nonsense")
	}
	if k, err := ParseKind("SPAA"); err != nil || k != KindSPAABase {
		t.Errorf("ParseKind(SPAA) = %v, %v", k, err)
	}
	if k, err := ParseKind("WFA"); err != nil || k != KindWFABase {
		t.Errorf("ParseKind(WFA) = %v, %v", k, err)
	}
}

func TestParseKindCaseInsensitive(t *testing.T) {
	for name, want := range map[string]Kind{
		"mcm": KindMCM, "spaa-ROTARY": KindSPAARotary, "wfa": KindWFABase,
		"Pim1": KindPIM1, " OPF ": KindOPF, "spaa": KindSPAABase,
	} {
		if k, err := ParseKind(name); err != nil || k != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", name, k, err, want)
		}
	}
}

func TestParseKindErrorListsNames(t *testing.T) {
	_, err := ParseKind("nonsense")
	if err == nil {
		t.Fatal("ParseKind accepted nonsense")
	}
	for _, name := range KindNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

func TestTimingOf(t *testing.T) {
	if got := TimingOf(KindSPAABase); got.ArbCycles != 3 || got.InitInterval != 1 {
		t.Errorf("SPAA timing = %+v, want 3 cycles / II 1", got)
	}
	if got := TimingOf(KindWFARotary); got.ArbCycles != 4 || got.InitInterval != 3 {
		t.Errorf("WFA timing = %+v, want 4 cycles / II 3", got)
	}
	if got := TimingOf(KindPIM1); got.ArbCycles != 4 || got.InitInterval != 3 {
		t.Errorf("PIM1 timing = %+v, want 4 cycles / II 3", got)
	}
}

func TestArbitrateEmptyMatrix(t *testing.T) {
	rng := sim.NewRNG(10)
	m := NewRouterMatrix()
	for _, a := range allArbiters(rng) {
		if got := a.Arbitrate(m); len(got) != 0 {
			t.Errorf("%s found %d grants on empty matrix", a.Name(), len(got))
		}
	}
}

func TestMatchingNeverExceedsCols(t *testing.T) {
	rng := sim.NewRNG(11)
	arbs := allArbiters(rng)
	f := func(seed uint16, density uint8) bool {
		r := sim.NewRNG(uint64(seed))
		m := NewRouterMatrix()
		fillRandom(m, r, float64(density%100)/100)
		for _, a := range arbs {
			if len(a.Arbitrate(m)) > RouterCols {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
