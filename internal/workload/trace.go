package workload

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"alpha21364/internal/packet"
	"alpha21364/internal/ports"
	"alpha21364/internal/sim"
	"alpha21364/internal/topology"
)

// TraceVersion is the trace file format version this build reads and
// writes. The reader rejects other versions rather than guessing.
const TraceVersion = 1

// traceMagic is the first token of every trace file.
const traceMagic = "alpha21364-trace"

// Event is one packet creation in the injection stream: everything needed
// to re-create and re-enqueue the packet at the same simulated time.
type Event struct {
	// At is the tick the packet was created (and first offered to its
	// node's injection queue).
	At sim.Ticks
	// Clocked records the engine phase of the creation: true for packets
	// created inside the generator's clock tick (new requests), false for
	// packets created by a scheduled event (memory and cache responses).
	// Replay re-injects each event in the same phase, which keeps the
	// within-tick dispatch order — events before clock edges — identical
	// to the recorded run.
	Clocked bool
	// Node and In are the injection point: which router and which
	// processor-side input port.
	Node topology.Node
	In   ports.In
	// Class, Src, and Dst describe the packet itself.
	Class packet.Class
	Src   topology.Node
	Dst   topology.Node
}

// Trace is a recorded injection stream: the torus and router clock it
// was captured on, a free-form label describing the run, and every
// packet creation in chronological order. Replaying a trace re-injects
// exactly these packets at exactly these ticks, independent of the
// arbiter under test.
type Trace struct {
	Width, Height int
	// Period is the router clock period (in ticks) of the recording run.
	// Clock-phase events only land on that grid, so replay refuses a
	// different period rather than silently dropping injections. Zero
	// means unknown (hand-built traces) and skips the check.
	Period sim.Ticks
	Label  string
	Events []Event
}

// Write serializes the trace in the versioned text format:
//
//	alpha21364-trace 1
//	torus <width> <height>
//	period <router period in ticks>
//	label <free text>
//	events <count>
//	<at> <clocked> <node> <in> <class> <src> <dst>   (count lines)
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s %d\n", traceMagic, TraceVersion)
	fmt.Fprintf(bw, "torus %d %d\n", t.Width, t.Height)
	fmt.Fprintf(bw, "period %d\n", t.Period)
	fmt.Fprintf(bw, "label %s\n", t.Label)
	fmt.Fprintf(bw, "events %d\n", len(t.Events))
	for _, e := range t.Events {
		clocked := 0
		if e.Clocked {
			clocked = 1
		}
		fmt.Fprintf(bw, "%d %d %d %d %d %d %d\n",
			e.At, clocked, e.Node, e.In, e.Class, e.Src, e.Dst)
	}
	return bw.Flush()
}

// WriteFile writes the trace to path, creating or truncating it.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	if err := t.Write(f); err != nil {
		f.Close()
		return fmt.Errorf("workload: writing trace %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("workload: closing trace %s: %w", path, err)
	}
	return nil
}

// ReadTrace parses a trace written by Write, validating the magic, the
// version, and every event field.
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var magic string
	var version int
	if _, err := fmt.Fscanf(br, "%s %d\n", &magic, &version); err != nil {
		return nil, fmt.Errorf("workload: trace header: %w", err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("workload: not a trace file (magic %q)", magic)
	}
	if version != TraceVersion {
		return nil, fmt.Errorf("workload: trace version %d not supported (want %d)", version, TraceVersion)
	}
	t := &Trace{}
	if _, err := fmt.Fscanf(br, "torus %d %d\n", &t.Width, &t.Height); err != nil {
		return nil, fmt.Errorf("workload: trace torus line: %w", err)
	}
	if t.Width < 2 || t.Height < 2 {
		return nil, fmt.Errorf("workload: trace torus %dx%d invalid", t.Width, t.Height)
	}
	var period int64
	if _, err := fmt.Fscanf(br, "period %d\n", &period); err != nil {
		return nil, fmt.Errorf("workload: trace period line: %w", err)
	}
	if period < 0 {
		return nil, fmt.Errorf("workload: negative trace period %d", period)
	}
	t.Period = sim.Ticks(period)
	line, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("workload: trace label line: %w", err)
	}
	if _, err := fmt.Sscanf(line, "label %s", &t.Label); err != nil {
		// An empty label serializes as "label \n"; keep it empty.
		t.Label = ""
	} else {
		t.Label = line[len("label ") : len(line)-1]
	}
	var count int
	if _, err := fmt.Fscanf(br, "events %d\n", &count); err != nil {
		return nil, fmt.Errorf("workload: trace events line: %w", err)
	}
	if count < 0 {
		return nil, fmt.Errorf("workload: negative event count %d", count)
	}
	nodes := t.Width * t.Height
	t.Events = make([]Event, count)
	prev := sim.Ticks(0)
	for i := range t.Events {
		var at int64
		var clocked, node, in, class, src, dst int
		if _, err := fmt.Fscanf(br, "%d %d %d %d %d %d %d\n",
			&at, &clocked, &node, &in, &class, &src, &dst); err != nil {
			return nil, fmt.Errorf("workload: trace event %d: %w", i, err)
		}
		e := Event{
			At:      sim.Ticks(at),
			Clocked: clocked != 0,
			Node:    topology.Node(node),
			In:      ports.In(in),
			Class:   packet.Class(class),
			Src:     topology.Node(src),
			Dst:     topology.Node(dst),
		}
		switch {
		case e.At < prev:
			return nil, fmt.Errorf("workload: trace event %d out of order (%d after %d)", i, e.At, prev)
		case int(e.Node) >= nodes || int(e.Src) >= nodes || int(e.Dst) >= nodes ||
			e.Node < 0 || e.Src < 0 || e.Dst < 0:
			return nil, fmt.Errorf("workload: trace event %d references a node outside the %d-node torus", i, nodes)
		case e.In < ports.InCache || e.In >= ports.NumIn:
			return nil, fmt.Errorf("workload: trace event %d injects on non-local port %d", i, in)
		case e.Class >= packet.NumClasses:
			return nil, fmt.Errorf("workload: trace event %d has invalid class %d", i, class)
		case e.In == ports.InIO && e.Class.IsIO() && e.Dst == e.Node:
			// An I/O packet for its own node must leave through G-I/O, and
			// the crossbar has no L-I/O -> G-I/O cell: replayed, it could
			// never leave the router.
			return nil, fmt.Errorf("workload: trace event %d injects %v on %v addressed to its own node %d (no L-I/O -> G-I/O crossbar path)",
				i, e.Class, e.In, e.Node)
		}
		prev = e.At
		t.Events[i] = e
	}
	return t, nil
}

// ReadTraceFile reads a trace from path.
func ReadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	defer f.Close()
	t, err := ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("workload: trace %s: %w", path, err)
	}
	return t, nil
}
