package flash

import (
	"testing"

	"flashwalker/internal/sim"
)

func newHIL(t *testing.T, depth int) (*sim.Engine, *SSD, *HIL) {
	t.Helper()
	eng := sim.New()
	ssd, err := New(eng, ftlCfg())
	if err != nil {
		t.Fatal(err)
	}
	ftl, err := NewFTL(ssd, 32)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHIL(ssd, ftl, depth, 5*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	return eng, ssd, h
}

func TestHILRejectsBadParams(t *testing.T) {
	eng := sim.New()
	ssd, _ := New(eng, ftlCfg())
	ftl, _ := NewFTL(ssd, 32)
	if _, err := NewHIL(ssd, ftl, 0, 1); err == nil {
		t.Fatal("zero depth accepted")
	}
	if _, err := NewHIL(ssd, ftl, 4, -1); err == nil {
		t.Fatal("negative latency accepted")
	}
}

// chainedRead is a completion target that issues a read of the same page
// when the write it awaits completes, recording both outcomes.
type chainedRead struct {
	h        *HIL
	lpn      int64
	outcomes []int32
}

func (c *chainedRead) HandleEvent(ev sim.Event) {
	c.outcomes = append(c.outcomes, ev.B)
	if ev.Kind == 0 {
		c.h.SubmitRead(c.lpn, sim.Event{Target: c, Kind: 1})
	}
}

func TestHILWriteThenRead(t *testing.T) {
	eng, _, h := newHIL(t, 8)
	c := &chainedRead{h: h, lpn: 3}
	h.SubmitWrite(3, sim.Event{Target: c})
	eng.Run()
	if len(c.outcomes) != 2 {
		t.Fatal("read never completed")
	}
	if c.outcomes[0] != CmdOK || c.outcomes[1] != CmdOK {
		t.Fatalf("outcomes: %v", c.outcomes)
	}
	if h.Stats.Completed != 2 || h.Stats.Submitted != 2 {
		t.Fatalf("stats %+v", h.Stats)
	}
}

func TestHILReadUnmappedFails(t *testing.T) {
	eng, _, h := newHIL(t, 8)
	p := &probe{eng: eng}
	h.SubmitRead(9, p.done())
	eng.Run()
	if p.n != 1 {
		t.Fatal("rejected read never completed")
	}
	if p.bs[0] != CmdRejected {
		t.Fatal("unmapped read succeeded")
	}
	if h.Stats.Rejected != 1 {
		t.Fatalf("Rejected = %d", h.Stats.Rejected)
	}
}

func TestHILQueueDepthEnforced(t *testing.T) {
	eng, _, h := newHIL(t, 2)
	p := &probe{eng: eng}
	for i := int64(0); i < 10; i++ {
		h.SubmitWrite(i, p.done())
	}
	if h.InFlight() != 2 {
		t.Fatalf("InFlight = %d, want 2", h.InFlight())
	}
	if h.QueuedCommands() != 8 {
		t.Fatalf("Queued = %d, want 8", h.QueuedCommands())
	}
	if h.Stats.MaxQueued != 8 {
		t.Fatalf("MaxQueued = %d", h.Stats.MaxQueued)
	}
	eng.Run()
	if p.n != 10 {
		t.Fatalf("completed %d of 10", p.n)
	}
	for i, b := range p.bs {
		if b != CmdOK {
			t.Errorf("write %d failed: outcome %d", i, b)
		}
	}
	if h.InFlight() != 0 || h.QueuedCommands() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestHILCommandLatencyApplied(t *testing.T) {
	eng, ssd, h := newHIL(t, 8)
	p := &probe{eng: eng}
	h.SubmitWrite(0, p.done())
	eng.Run()
	// proc latency + PCIe page transfer + program latency.
	min := 5*sim.Microsecond + ssd.Cfg.ProgramLatency
	if p.last < min {
		t.Fatalf("write completed at %v, before minimum %v", p.last, min)
	}
}

func TestHILPCIeCharged(t *testing.T) {
	eng, ssd, h := newHIL(t, 8)
	h.SubmitWrite(1, sim.Event{})
	eng.Run()
	if ssd.Counters.HostBytes != ssd.Cfg.PageBytes {
		t.Fatalf("HostBytes = %d", ssd.Counters.HostBytes)
	}
	h.SubmitRead(1, sim.Event{})
	eng.Run()
	if ssd.Counters.HostBytes != 2*ssd.Cfg.PageBytes {
		t.Fatalf("HostBytes after read = %d", ssd.Counters.HostBytes)
	}
}

func TestHILManyCommandsDrain(t *testing.T) {
	eng, _, h := newHIL(t, 4)
	p := &probe{eng: eng}
	for i := 0; i < 200; i++ {
		lpn := int64(i % 24)
		if i%2 == 0 {
			h.SubmitWrite(lpn, p.done())
		} else {
			h.SubmitRead(lpn, p.done())
		}
	}
	eng.Run()
	if p.n != 200 {
		t.Fatalf("completed %d of 200", p.n)
	}
}
