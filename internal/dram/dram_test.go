package dram

import (
	"testing"

	"flashwalker/internal/sim"
)

func TestDefaultValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBad(t *testing.T) {
	for _, c := range []Config{
		{AccessLatency: 0, BytesPerSec: 1, CapacityBytes: 1},
		{AccessLatency: 1, BytesPerSec: 0, CapacityBytes: 1},
		{AccessLatency: 1, BytesPerSec: 1, CapacityBytes: 0},
	} {
		if c.Validate() == nil {
			t.Errorf("config %+v accepted", c)
		}
		if _, err := New(sim.New(), c); err == nil {
			t.Errorf("New accepted %+v", c)
		}
	}
}

func TestReadTiming(t *testing.T) {
	eng := sim.New()
	cfg := Config{AccessLatency: 28, BytesPerSec: 12_800_000_000, CapacityBytes: 1 << 30}
	d, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 128 bytes at 12.8 GB/s = 10 ns, plus 28 ns access.
	end := d.Read(128, nil)
	if end != 38 {
		t.Fatalf("read end = %v, want 38", end)
	}
}

func TestPortSerializes(t *testing.T) {
	eng := sim.New()
	d, _ := New(eng, Config{AccessLatency: 10, BytesPerSec: 1_000_000_000, CapacityBytes: 1 << 20})
	// two 1000-byte ops: each 10 + 1000ns = 1010ns; second queues.
	e1 := d.Read(1000, nil)
	e2 := d.Write(1000, nil)
	if e1 != 1010 || e2 != 2020 {
		t.Fatalf("ends = %v, %v", e1, e2)
	}
	if d.ReadBytes != 1000 || d.WriteBytes != 1000 || d.Accesses != 2 {
		t.Fatal("counters wrong")
	}
}

// counter is a completion target that counts deliveries.
type counter int

func (c *counter) HandleEvent(sim.Event) { *c++ }

func TestCallbacksFire(t *testing.T) {
	eng := sim.New()
	d, _ := New(eng, Default())
	var c counter
	d.Read(64, &sim.Event{Target: &c})
	d.Write(64, &sim.Event{Target: &c})
	eng.Run()
	if c != 2 {
		t.Fatalf("completions fired %d", c)
	}
}

func TestUtilization(t *testing.T) {
	eng := sim.New()
	d, _ := New(eng, Config{AccessLatency: 50, BytesPerSec: 1e12, CapacityBytes: 1 << 20})
	d.Read(0, nil)
	eng.Run()
	eng.RunUntil(100)
	u := d.Utilization()
	if u < 0.49 || u > 0.51 {
		t.Fatalf("Utilization = %v, want ~0.5", u)
	}
}
