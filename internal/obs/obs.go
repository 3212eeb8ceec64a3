// Package obs is the simulation telemetry layer: preallocated metric
// structs whose hot-path updates are plain int64 field writes. A router
// holds its RouterMetrics and FlightRing in its one watch, beside the
// invariant oracle (internal/check); the network holds its
// NetworkMetrics behind one nil-checked pointer. Two guarantees hold:
//
//   - Disabled (the default): nothing is wired. The router and network
//     hot paths pay one nil test per hook site and allocate nothing —
//     the AllocsPerRun pins and the bench-baseline gate cover this.
//   - Enabled: observation only. Metrics read simulation state and write
//     their own counters; they never post events, reserve credits, or
//     touch RNG streams, so a metrics-enabled run's Result (minus the
//     metrics themselves) is byte-identical to a disabled run's —
//     test-enforced in internal/experiment.
//
// Counters and gauges are bare int64/float64 fields on per-router and
// per-network structs (increment = one add, no interface calls, no
// atomics — the simulation is single-threaded); the flight recorder is a
// fixed ring of recent router events per node.
//
// A run's metrics aggregate into a Snapshot: a versioned, strict-JSON
// document attached to ResultPoint.Metrics, so it travels in the Result
// JSONL that `sweep -metrics` emits.
package obs

import (
	"alpha21364/internal/ports"
	"alpha21364/internal/sim"
	"alpha21364/internal/vc"
)

// ArbiterMetrics counts one router's arbitration outcomes. The router
// counts Requests, Grants, and Conflicts right after its grant policy's
// Select or its wave arbiter's Arbitrate (core.InstrumentArbiter counts
// them for an arbiter no router holds), and NomFailures when a
// nomination is invalidated before arbitration (output busy or no
// downstream credit).
type ArbiterMetrics struct {
	// Requests counts GA-stage competitors considered by the arbitration
	// core: due SPAA nominations offered to the grant policy, or valid
	// wave-matrix cells offered to the matching arbiter.
	Requests int64
	// Grants counts grants issued by the arbitration core.
	Grants int64
	// Conflicts counts requests that lost arbitration (Requests - Grants).
	Conflicts int64
	// NomFailures counts nominations invalidated before arbitration ran:
	// the output port was busy or the downstream channel had no credit.
	NomFailures int64
}

// queueTrack maintains one (input port, channel) ring's occupancy
// time-integral exactly: on every length transition at time now,
// integral += len·(now − lastChange).
type queueTrack struct {
	integral int64 // packet·ticks
	last     sim.Ticks
	cur      int32
}

func (q *queueTrack) delta(d int32, now sim.Ticks) {
	q.integral += int64(q.cur) * int64(now-q.last)
	q.last = now
	q.cur += d
}

// RouterMetrics is one router's preallocated counter block. The
// router's watch holds a pointer to it; every update is a field write.
type RouterMetrics struct {
	queues [ports.NumIn][vc.NumChannels]queueTrack
	// Stalls counts nominations invalidated because the output port was
	// still busy; CreditWaits those invalidated for lack of a downstream
	// credit. Together they partition Arb.NomFailures.
	Stalls      int64
	CreditWaits int64
	Arb         ArbiterMetrics
}

// QueueDelta records a ±1 occupancy transition on one input ring at time
// now. Transitions arrive in event order, so the integral is exact.
func (m *RouterMetrics) QueueDelta(in ports.In, ch vc.Channel, d int32, now sim.Ticks) {
	m.queues[in][ch].delta(d, now)
}

// OccupancyIntegral returns one ring's accumulated packet·ticks; call
// Flush first to extend the integral to the end of the run.
func (m *RouterMetrics) OccupancyIntegral(in ports.In, ch vc.Channel) int64 {
	return m.queues[in][ch].integral
}

// Flush closes every ring's integral at time end.
func (m *RouterMetrics) Flush(end sim.Ticks) {
	for in := range m.queues {
		for ch := range m.queues[in] {
			m.queues[in][ch].delta(0, end)
		}
	}
}

// occupancyTotal sums the closed integrals across all rings.
func (m *RouterMetrics) occupancyTotal() int64 {
	var t int64
	for in := range m.queues {
		for ch := range m.queues[in] {
			t += m.queues[in][ch].integral
		}
	}
	return t
}

// LinkMetrics counts one directed inter-router link's traffic. BusyTicks
// is the wire's serialization time (flits × link period), so
// BusyTicks/elapsed is the link's utilization.
type LinkMetrics struct {
	Packets   int64
	Flits     int64
	BusyTicks int64
}

// NetworkMetrics is the network-level counter block: per-link traffic
// plus sink throughput at the processor-facing ports.
type NetworkMetrics struct {
	// Links is preallocated at install time, one entry per directed link.
	Links []LinkMetrics
	// Delivered and DeliveredFlits count packets and flits consumed by
	// local sinks (the network's delivered throughput).
	Delivered      int64
	DeliveredFlits int64
}

// SimMetrics bundles one timing run's metric blocks: a RouterMetrics and
// FlightRing per router, plus the network block. Everything is allocated
// here, before the run starts; the hot path only writes fields.
type SimMetrics struct {
	Routers []RouterMetrics
	Flight  []FlightRing
	Network NetworkMetrics
}

// DefaultFlightDepth is the per-router flight-recorder capacity.
const DefaultFlightDepth = 128

// NewSimMetrics preallocates the metric blocks for a run over nodes
// routers and links directed inter-router links.
func NewSimMetrics(nodes, links int) *SimMetrics {
	m := &SimMetrics{
		Routers: make([]RouterMetrics, nodes),
		Flight:  make([]FlightRing, nodes),
	}
	for i := range m.Flight {
		m.Flight[i].init(DefaultFlightDepth)
	}
	m.Network.Links = make([]LinkMetrics, links)
	return m
}

// Flush closes every router's occupancy integrals at time end.
func (m *SimMetrics) Flush(end sim.Ticks) {
	for i := range m.Routers {
		m.Routers[i].Flush(end)
	}
}

// SnapshotVersion is the Snapshot schema version.
const SnapshotVersion = 1

// Snapshot is the serializable aggregate of one run's metrics. The JSON
// schema is strict and round-trip pinned (internal/experiment's result
// tests): every field is exported and tagged, and nothing volatile
// (wall-clock time, pointers) appears, so snapshots are deterministic
// and cache-safe.
type Snapshot struct {
	Version int `json:"version"`
	// Arbiter is the run's arbitration algorithm (one run = one kind).
	Arbiter string `json:"arbiter,omitempty"`
	// ElapsedTicks is the nominal run length the gauges are normalized by.
	ElapsedTicks int64            `json:"elapsed_ticks"`
	Routers      []RouterSnapshot `json:"routers"`
	Network      NetworkSnapshot  `json:"network"`
}

// RouterSnapshot aggregates one router's counters.
type RouterSnapshot struct {
	Node int `json:"node"`
	// MeanOccupancy is the time-averaged packet count buffered across the
	// router's input rings (the occupancy time-integral over elapsed).
	MeanOccupancy float64 `json:"mean_occupancy"`
	Stalls        int64   `json:"stalls"`
	CreditWaits   int64   `json:"credit_waits"`
	ArbRequests   int64   `json:"arb_requests"`
	ArbGrants     int64   `json:"arb_grants"`
	ArbConflicts  int64   `json:"arb_conflicts"`
	NomFailures   int64   `json:"nomination_failures"`
}

// NetworkSnapshot aggregates the link and sink counters.
type NetworkSnapshot struct {
	// LinkUtilization is the mean busy fraction across directed links;
	// MaxLinkUtilization the busiest single link's.
	LinkUtilization    float64 `json:"link_utilization"`
	MaxLinkUtilization float64 `json:"max_link_utilization"`
	LinkPackets        int64   `json:"link_packets"`
	LinkFlits          int64   `json:"link_flits"`
	DeliveredPackets   int64   `json:"delivered_packets"`
	DeliveredFlits     int64   `json:"delivered_flits"`
}

// Snapshot aggregates the run's counters into the serializable form.
// Call Flush first so the occupancy integrals cover the whole run.
func (m *SimMetrics) Snapshot(arbiter string, elapsed sim.Ticks) *Snapshot {
	s := &Snapshot{
		Version:      SnapshotVersion,
		Arbiter:      arbiter,
		ElapsedTicks: int64(elapsed),
		Routers:      make([]RouterSnapshot, len(m.Routers)),
	}
	for i := range m.Routers {
		r := &m.Routers[i]
		rs := RouterSnapshot{
			Node:         i,
			Stalls:       r.Stalls,
			CreditWaits:  r.CreditWaits,
			ArbRequests:  r.Arb.Requests,
			ArbGrants:    r.Arb.Grants,
			ArbConflicts: r.Arb.Conflicts,
			NomFailures:  r.Arb.NomFailures,
		}
		if elapsed > 0 {
			rs.MeanOccupancy = float64(r.occupancyTotal()) / float64(elapsed)
		}
		s.Routers[i] = rs
	}
	var busy, maxBusy int64
	for i := range m.Network.Links {
		l := &m.Network.Links[i]
		busy += l.BusyTicks
		if l.BusyTicks > maxBusy {
			maxBusy = l.BusyTicks
		}
		s.Network.LinkPackets += l.Packets
		s.Network.LinkFlits += l.Flits
	}
	if elapsed > 0 && len(m.Network.Links) > 0 {
		s.Network.LinkUtilization = float64(busy) / float64(int64(elapsed)*int64(len(m.Network.Links)))
		s.Network.MaxLinkUtilization = float64(maxBusy) / float64(elapsed)
	}
	s.Network.DeliveredPackets = m.Network.Delivered
	s.Network.DeliveredFlits = m.Network.DeliveredFlits
	return s
}
