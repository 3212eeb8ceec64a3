package core

import (
	"testing"

	"alpha21364/internal/obs"
)

// TestInstrumentArbiterObservationOnly checks the matrix-arbiter wrapper
// delegates unchanged and accounts every valid nomination.
func TestInstrumentArbiterObservationOnly(t *testing.T) {
	fill := func(mx *Matrix) {
		// Three nominations in two columns: col 0 has two competitors.
		mx.Set(0, 0, 1, 100, 0)
		mx.Set(1, 0, 2, 101, 0)
		mx.Set(2, 3, 3, 102, 0)
	}

	bareMx := NewRouterMatrix()
	fill(bareMx)
	bare := NewWFA()
	want := append([]Grant(nil), bare.Arbitrate(bareMx)...)

	var m obs.ArbiterMetrics
	wrapped := InstrumentArbiter(NewWFA(), &m)
	if wrapped.Name() != bare.Name() {
		t.Fatalf("Name = %q, want %q", wrapped.Name(), bare.Name())
	}
	wrapMx := NewRouterMatrix()
	fill(wrapMx)
	got := wrapped.Arbitrate(wrapMx)

	if len(got) != len(want) {
		t.Fatalf("wrapped grants %v, bare grants %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("grant %d: wrapped %+v, bare %+v", i, got[i], want[i])
		}
	}
	if m.Requests != 3 || m.Grants != int64(len(got)) || m.Conflicts != 3-int64(len(got)) {
		t.Fatalf("metrics = %+v after %d grants", m, len(got))
	}
}
