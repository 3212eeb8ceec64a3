package stats

import (
	"testing"
	"testing/quick"

	"alpha21364/internal/packet"
	"alpha21364/internal/sim"
)

func TestWarmupFiltering(t *testing.T) {
	c := NewCollector(1000)
	p := packet.New(1, packet.Request, 0, 1, 0)
	c.Delivered(p, 500) // inside warmup: ignored
	if c.Packets() != 0 {
		t.Fatal("warmup delivery counted")
	}
	c.Delivered(p, 1500)
	if c.Packets() != 1 {
		t.Fatal("post-warmup delivery not counted")
	}
	if c.Flits() != 3 {
		t.Errorf("flits = %d, want 3", c.Flits())
	}
}

func TestLatencyAccounting(t *testing.T) {
	c := NewCollector(0)
	p1 := packet.New(1, packet.Request, 0, 1, 0)
	p2 := packet.New(2, packet.BlockResponse, 0, 1, sim.FromNS(10))
	c.Delivered(p1, sim.FromNS(45)) // 45 ns
	c.Delivered(p2, sim.FromNS(40)) // 30 ns
	if got := c.AvgLatencyNS(); got < 37.4 || got > 37.6 {
		t.Errorf("avg latency = %v, want 37.5", got)
	}
	if got := c.MinLatencyNS(); got != 30 {
		t.Errorf("min = %v, want 30", got)
	}
	if got := c.MaxLatencyNS(); got != 45 {
		t.Errorf("max = %v, want 45", got)
	}
	if c.MeanHops() != 0 {
		t.Errorf("hops = %v, want 0", c.MeanHops())
	}
}

func TestNegativeLatencyPanics(t *testing.T) {
	c := NewCollector(0)
	p := packet.New(1, packet.Request, 0, 1, 100)
	defer func() {
		if recover() == nil {
			t.Error("negative latency should panic")
		}
	}()
	c.Delivered(p, 50)
}

func TestBNFPoint(t *testing.T) {
	c := NewCollector(sim.FromNS(100))
	// 16 routers, 1000 ns window, 240 flits delivered.
	for i := 0; i < 80; i++ {
		p := packet.New(uint64(i), packet.Request, 0, 1, sim.FromNS(150))
		c.Delivered(p, sim.FromNS(200))
	}
	pt := c.BNF(16, sim.FromNS(1100))
	want := 240.0 / 16 / 1000
	if pt.Throughput < want*0.999 || pt.Throughput > want*1.001 {
		t.Errorf("throughput = %v, want %v", pt.Throughput, want)
	}
	if pt.AvgLatencyNS != 50 {
		t.Errorf("latency = %v, want 50", pt.AvgLatencyNS)
	}
}

func TestBNFEmptyWindow(t *testing.T) {
	c := NewCollector(100)
	if pt := c.BNF(16, 50); pt.Throughput != 0 {
		t.Error("inverted window should give a zero point")
	}
	if pt := c.BNF(0, 500); pt.Throughput != 0 {
		t.Error("zero routers should give a zero point")
	}
}

func TestPercentileMonotone(t *testing.T) {
	c := NewCollector(0)
	for i := 1; i <= 100; i++ {
		p := packet.New(uint64(i), packet.Request, 0, 1, 0)
		c.Delivered(p, sim.Ticks(i)*100)
	}
	p50 := c.PercentileLatencyNS(0.5)
	p99 := c.PercentileLatencyNS(0.99)
	if p50 > p99 {
		t.Errorf("p50 %v > p99 %v", p50, p99)
	}
	if p99 > 2*c.MaxLatencyNS() {
		t.Errorf("p99 %v exceeds histogram bound vs max %v", p99, c.MaxLatencyNS())
	}
}

func TestHistogramBucketsProperty(t *testing.T) {
	f := func(raw uint32) bool {
		lat := sim.Ticks(raw)
		b := bucketOf(lat)
		return b >= 0 && b < histBuckets
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClassCounts(t *testing.T) {
	c := NewCollector(0)
	c.Delivered(packet.New(3, packet.Forward, 0, 1, 0), 10)
	if c.ClassPackets(packet.Forward) != 1 || c.ClassPackets(packet.Request) != 0 {
		t.Error("per-class counts wrong")
	}
}
