package workload

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"alpha21364/internal/packet"
	"alpha21364/internal/ports"
)

func sampleTrace() *Trace {
	return &Trace{
		Width: 4, Height: 4, Period: 10,
		Label: "kind=SPAA-rotary pattern=random rate=0.02",
		Events: []Event{
			{At: 10, Clocked: true, Node: 3, In: ports.InCache, Class: packet.Request, Src: 3, Dst: 9},
			{At: 743, Clocked: false, Node: 9, In: ports.InMC1, Class: packet.BlockResponse, Src: 9, Dst: 3},
			{At: 743, Clocked: false, Node: 9, In: ports.InMC0, Class: packet.Forward, Src: 9, Dst: 12},
			{At: 800, Clocked: true, Node: 0, In: ports.InIO, Class: packet.ReadIO, Src: 0, Dst: 15},
		},
	}
}

func TestTraceRoundTrip(t *testing.T) {
	want := sampleTrace()
	var buf bytes.Buffer
	if err := want.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip changed the trace:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace")
	want := sampleTrace()
	if err := want.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("file round trip changed the trace")
	}
}

func TestTraceEmptyLabelRoundTrip(t *testing.T) {
	want := &Trace{Width: 2, Height: 2}
	var buf bytes.Buffer
	if err := want.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != "" || len(got.Events) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestTraceRejectsBadInput(t *testing.T) {
	for name, text := range map[string]string{
		"wrong magic":    "not-a-trace 1\ntorus 4 4\nperiod 10\nlabel \nevents 0\n",
		"future version": "alpha21364-trace 99\ntorus 4 4\nperiod 10\nlabel \nevents 0\n",
		"tiny torus":     "alpha21364-trace 1\ntorus 1 1\nperiod 10\nlabel \nevents 0\n",
		"missing period": "alpha21364-trace 1\ntorus 4 4\nlabel \nevents 0\n",
		"bad period":     "alpha21364-trace 1\ntorus 4 4\nperiod -3\nlabel \nevents 0\n",
		"truncated":      "alpha21364-trace 1\ntorus 4 4\nperiod 10\nlabel \nevents 2\n10 1 0 4 0 0 1\n",
		"out of order":   "alpha21364-trace 1\ntorus 4 4\nperiod 10\nlabel \nevents 2\n10 1 0 4 0 0 1\n5 1 0 4 0 0 1\n",
		"bad node":       "alpha21364-trace 1\ntorus 4 4\nperiod 10\nlabel \nevents 1\n10 1 99 4 0 0 1\n",
		"network port":   "alpha21364-trace 1\ntorus 4 4\nperiod 10\nlabel \nevents 1\n10 1 0 2 0 0 1\n",
		"bad class":      "alpha21364-trace 1\ntorus 4 4\nperiod 10\nlabel \nevents 1\n10 1 0 4 42 0 1\n",
		"stuck I/O":      "alpha21364-trace 1\ntorus 4 4\nperiod 10\nlabel \nevents 1\n10 1 5 7 5 5 5\n",
	} {
		if _, err := ReadTrace(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted invalid trace", name)
		}
	}
}

func TestReadTraceFileMissing(t *testing.T) {
	if _, err := ReadTraceFile(filepath.Join(t.TempDir(), "nope.trace")); err == nil {
		t.Fatal("accepted missing file")
	}
}
