package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"alpha21364/internal/ports"
	"alpha21364/internal/sim"
	"alpha21364/internal/vc"
)

func TestQueueOccupancyIntegralExact(t *testing.T) {
	var m RouterMetrics
	// One packet buffered from t=10 to t=30, two from t=30 to t=50, one
	// from t=50 to t=70, zero after. Integral: 1*20 + 2*20 + 1*20 = 80.
	m.QueueDelta(2, 5, +1, 10)
	m.QueueDelta(2, 5, +1, 30)
	m.QueueDelta(2, 5, -1, 50)
	m.QueueDelta(2, 5, -1, 70)
	m.Flush(100)
	if got := m.OccupancyIntegral(2, 5); got != 80 {
		t.Fatalf("occupancy integral = %d, want 80", got)
	}
	// Other rings stay zero.
	if got := m.OccupancyIntegral(0, 0); got != 0 {
		t.Fatalf("untouched ring integral = %d, want 0", got)
	}
}

func TestQueueOccupancyFlushExtendsTail(t *testing.T) {
	var m RouterMetrics
	m.QueueDelta(0, 0, +1, 0)
	// Still occupied at flush time: 1 packet from t=0 to t=40.
	m.Flush(40)
	if got := m.OccupancyIntegral(0, 0); got != 40 {
		t.Fatalf("occupancy integral = %d, want 40", got)
	}
}

func TestSnapshotAggregation(t *testing.T) {
	m := NewSimMetrics(2, 8)
	m.Routers[0].QueueDelta(0, 0, +1, 0)
	m.Routers[0].Stalls = 3
	m.Routers[0].CreditWaits = 2
	m.Routers[0].Arb = ArbiterMetrics{Requests: 10, Grants: 7, Conflicts: 3, NomFailures: 5}
	m.Network.Links[0].BusyTicks = 50
	m.Network.Links[0].Packets = 4
	m.Network.Links[0].Flits = 12
	m.Network.Links[3].BusyTicks = 100
	m.Network.Delivered = 9
	m.Network.DeliveredFlits = 27
	m.Flush(100)

	s := m.Snapshot("SPAA-rotary", 100)
	if s.Version != SnapshotVersion || s.Arbiter != "SPAA-rotary" || s.ElapsedTicks != 100 {
		t.Fatalf("snapshot header = %+v", s)
	}
	r0 := s.Routers[0]
	if r0.MeanOccupancy != 1.0 {
		t.Errorf("MeanOccupancy = %v, want 1.0", r0.MeanOccupancy)
	}
	if r0.Stalls != 3 || r0.CreditWaits != 2 || r0.ArbRequests != 10 ||
		r0.ArbGrants != 7 || r0.ArbConflicts != 3 || r0.NomFailures != 5 {
		t.Errorf("router snapshot = %+v", r0)
	}
	n := s.Network
	if want := 150.0 / (100.0 * 8.0); n.LinkUtilization != want {
		t.Errorf("LinkUtilization = %v, want %v", n.LinkUtilization, want)
	}
	if n.MaxLinkUtilization != 1.0 {
		t.Errorf("MaxLinkUtilization = %v, want 1.0", n.MaxLinkUtilization)
	}
	if n.LinkPackets != 4 || n.LinkFlits != 12 || n.DeliveredPackets != 9 || n.DeliveredFlits != 27 {
		t.Errorf("network snapshot = %+v", n)
	}
}

// TestSnapshotJSONRoundTrip pins the Snapshot schema: marshal → strict
// decode → marshal must be byte-identical, and the golden encoding of a
// small snapshot is pinned so schema drift is a deliberate act.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	m := NewSimMetrics(1, 2)
	m.Routers[0].QueueDelta(1, 2, +1, 0)
	m.Routers[0].Arb.Requests = 4
	m.Routers[0].Arb.Grants = 4
	m.Network.Links[1].BusyTicks = 25
	m.Network.Delivered = 4
	m.Flush(50)
	s := m.Snapshot("PIM1", 50)

	b1, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	dec := json.NewDecoder(bytes.NewReader(b1))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&back); err != nil {
		t.Fatalf("strict decode: %v", err)
	}
	b2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("round trip not byte-identical:\n%s\n%s", b1, b2)
	}

	const golden = `{"version":1,"arbiter":"PIM1","elapsed_ticks":50,` +
		`"routers":[{"node":0,"mean_occupancy":1,"stalls":0,"credit_waits":0,` +
		`"arb_requests":4,"arb_grants":4,"arb_conflicts":0,"nomination_failures":0}],` +
		`"network":{"link_utilization":0.25,"max_link_utilization":0.5,` +
		`"link_packets":0,"link_flits":0,"delivered_packets":4,"delivered_flits":0}}`
	if string(b1) != golden {
		t.Fatalf("snapshot schema drifted:\n got %s\nwant %s", b1, golden)
	}
}

func TestFlightRingWrap(t *testing.T) {
	r := NewFlightRing(4)
	if r.Depth() != 4 || r.Len() != 0 {
		t.Fatalf("fresh ring: depth=%d len=%d", r.Depth(), r.Len())
	}
	for i := 0; i < 10; i++ {
		r.Record(sim.Ticks(i), FlightNominate, uint64(i), ports.In(i%8), vc.Channel(i%19), ports.NumOut)
	}
	if r.Len() != 4 {
		t.Fatalf("len after wrap = %d, want 4", r.Len())
	}
	ev := r.Events()
	for i, e := range ev {
		want := uint64(6 + i)
		if e.Packet != want || e.At != sim.Ticks(want) {
			t.Fatalf("event %d = %+v, want packet %d", i, e, want)
		}
	}
}

func TestFlightRingRecordDoesNotAllocate(t *testing.T) {
	r := NewFlightRing(8)
	allocs := testing.AllocsPerRun(100, func() {
		r.Record(1, FlightGrant, 42, 3, 7, 2)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %v per op, want 0", allocs)
	}
}

func TestFlightKindJSON(t *testing.T) {
	for k := FlightInject; k <= FlightReset; k++ {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back FlightKind
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Fatalf("kind %v round-tripped to %v", k, back)
		}
	}
	if _, err := json.Marshal(FlightKind(200)); err == nil {
		t.Fatal("marshal of unknown kind should fail")
	}
	var k FlightKind
	if err := json.Unmarshal([]byte(`"bogus"`), &k); err == nil {
		t.Fatal("unmarshal of unknown name should fail")
	}
	if err := json.Unmarshal([]byte(`7`), &k); err == nil {
		t.Fatal("unmarshal of non-string should fail")
	}
	if got, want := FlightGrant.String(), "grant"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if !strings.Contains(FlightKind(200).String(), "200") {
		t.Fatalf("unknown kind String() = %q", FlightKind(200).String())
	}
}

func TestFlightDumpJSON(t *testing.T) {
	r := NewFlightRing(2)
	r.Record(5, FlightInject, 1, 7, 0, ports.NumOut)
	r.Record(6, FlightGrant, 1, 7, 0, 3)
	b, err := json.Marshal(r.Dump(9))
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{"node":9,"events":[` +
		`{"at":5,"kind":"inject","packet":1,"in":7,"ch":0,"out":7},` +
		`{"at":6,"kind":"grant","packet":1,"in":7,"ch":0,"out":3}]}`
	if string(b) != golden {
		t.Fatalf("dump schema drifted:\n got %s\nwant %s", b, golden)
	}
}

func TestFlightRingBadDepthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on zero depth")
		}
	}()
	NewFlightRing(0)
}
