package flash

import (
	"testing"

	"flashwalker/internal/metrics"
	"flashwalker/internal/sim"
)

// smallCfg is a 2-channel, 2-chip geometry with simple numbers for
// hand-computable timing.
func smallCfg() Config {
	c := Default()
	c.Channels = 2
	c.ChipsPerChannel = 2
	return c
}

func newSSD(t *testing.T, cfg Config) (*sim.Engine, *SSD) {
	t.Helper()
	eng := sim.New()
	s, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, s
}

// probe is a completion target: it counts deliveries and remembers the
// time of the last one and the B payload of each.
type probe struct {
	eng  *sim.Engine
	n    int
	last sim.Time
	bs   []int32
}

func (p *probe) HandleEvent(ev sim.Event) {
	p.n++
	p.last = p.eng.Now()
	p.bs = append(p.bs, ev.B)
}

// done returns a completion event targeting p.
func (p *probe) done() sim.Event { return sim.Event{Target: p} }

func TestDefaultConfigMatchesPaperTables(t *testing.T) {
	c := Default()
	if c.Channels != 32 || c.ChipsPerChannel != 4 || c.DiesPerChip != 2 || c.PlanesPerDie != 4 {
		t.Fatal("geometry differs from Table I/III")
	}
	if c.ReadLatency != 35*sim.Microsecond || c.ProgramLatency != 350*sim.Microsecond {
		t.Fatal("latencies differ from Table I")
	}
	if c.PageBytes != 4096 || c.PagesPerBlock != 64 || c.BlocksPerPlane != 2048 {
		t.Fatal("page geometry differs from Table III")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumChips() != 128 || c.PlanesPerChip() != 8 {
		t.Fatal("derived counts wrong")
	}
}

func TestTheoreticalBandwidthCeilings(t *testing.T) {
	c := Default()
	// Figure 8 quotes 10.4 GB/s aggregate channel BW (32 x 333 MB/s).
	if bw := c.MaxChannelBW(); bw < 10.3e9 || bw > 10.7e9 {
		t.Fatalf("MaxChannelBW = %v", bw)
	}
	// And ~55.8 GB/s max read: 1024 planes * 4KB / 35us = 119 GB/s per the
	// raw math, but the paper's 55.8 GB/s ceiling counts die-level (two
	// planes share a die bus); our model exposes plane parallelism, so
	// just assert it exceeds the channel ceiling by a large factor.
	if c.MaxReadBW() < 5*c.MaxChannelBW() {
		t.Fatalf("MaxReadBW = %v not >> channel BW", c.MaxReadBW())
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := Default()
	bad.Channels = 0
	if bad.Validate() == nil {
		t.Fatal("zero channels accepted")
	}
	bad = Default()
	bad.PageBytes = 0
	if bad.Validate() == nil {
		t.Fatal("zero page accepted")
	}
	bad = Default()
	bad.ReadLatency = 0
	if bad.Validate() == nil {
		t.Fatal("zero latency accepted")
	}
	bad = Default()
	bad.PCIeBytesPerSec = 0
	if bad.Validate() == nil {
		t.Fatal("zero PCIe accepted")
	}
	if _, err := New(sim.New(), bad); err == nil {
		t.Fatal("New accepted invalid config")
	}
}

func TestCapacity(t *testing.T) {
	c := Default()
	// 128 chips * 8 planes * 2048 blocks * 64 pages * 4KB = 512 GiB.
	want := int64(128) * 8 * 2048 * 64 * 4096
	if c.CapacityBytes() != want {
		t.Fatalf("capacity = %d, want %d", c.CapacityBytes(), want)
	}
}

func TestChipIndexing(t *testing.T) {
	_, s := newSSD(t, smallCfg())
	for idx := 0; idx < 4; idx++ {
		chip := s.Chip(idx)
		if chip.ID != idx {
			t.Fatalf("chip %d has ID %d", idx, chip.ID)
		}
		if chip.Channel.ID != idx/2 {
			t.Fatalf("chip %d on channel %d", idx, chip.Channel.ID)
		}
	}
	if s.NumChips() != 4 {
		t.Fatal("NumChips")
	}
}

func TestReadPagesLocalParallelism(t *testing.T) {
	// 8 planes per chip: reading 8 pages takes exactly one ReadLatency;
	// 16 pages takes two.
	eng, s := newSSD(t, smallCfg())
	chip := s.Chip(0)
	p := &probe{eng: eng}
	s.ReadPagesLocalE(chip, 8, p.done())
	eng.Run()
	if p.last != s.Cfg.ReadLatency {
		t.Fatalf("8 pages on 8 planes took %v, want %v", p.last, s.Cfg.ReadLatency)
	}

	eng2, s2 := newSSD(t, smallCfg())
	p2 := &probe{eng: eng2}
	s2.ReadPagesLocalE(s2.Chip(0), 16, p2.done())
	eng2.Run()
	if p2.last != 2*s2.Cfg.ReadLatency {
		t.Fatalf("16 pages took %v, want %v", p2.last, 2*s2.Cfg.ReadLatency)
	}
}

func TestReadPagesLocalDoesNotUseChannel(t *testing.T) {
	eng, s := newSSD(t, smallCfg())
	s.ReadPagesLocalE(s.Chip(0), 32, sim.Event{})
	eng.Run()
	if s.Counters.ChannelBytes != 0 {
		t.Fatalf("local read moved %d bytes over channel", s.Counters.ChannelBytes)
	}
	if s.Counters.ReadBytes != 32*4096 {
		t.Fatalf("ReadBytes = %d", s.Counters.ReadBytes)
	}
	if s.Counters.ReadPages != 32 {
		t.Fatalf("ReadPages = %d", s.Counters.ReadPages)
	}
}

func TestReadPagesToChannelPaysBusTime(t *testing.T) {
	eng, s := newSSD(t, smallCfg())
	p := &probe{eng: eng}
	s.ReadPagesToChannel(s.Chip(0), 1, p.done())
	eng.Run()
	want := s.Cfg.ReadLatency + sim.TransferTime(4096, s.Cfg.ChannelBytesPerSec)
	if p.last != want {
		t.Fatalf("1 page to channel took %v, want %v", p.last, want)
	}
	if s.Counters.ChannelBytes != 4096 {
		t.Fatalf("ChannelBytes = %d", s.Counters.ChannelBytes)
	}
}

func TestChannelBusSerializesAcrossChips(t *testing.T) {
	// Two chips on one channel reading one page each: sensing overlaps but
	// the two bus transfers serialize.
	eng, s := newSSD(t, smallCfg())
	p := &probe{eng: eng}
	s.ReadPagesToChannel(s.Chip(0), 1, p.done())
	s.ReadPagesToChannel(s.Chip(1), 1, p.done())
	eng.Run()
	xfer := sim.TransferTime(4096, s.Cfg.ChannelBytesPerSec)
	want := s.Cfg.ReadLatency + 2*xfer
	if p.n != 2 || p.last != want {
		t.Fatalf("two-chip channel reads: %d finished, last at %v, want 2 at %v", p.n, p.last, want)
	}
}

func TestDifferentChannelsIndependent(t *testing.T) {
	eng, s := newSSD(t, smallCfg())
	a, b := &probe{eng: eng}, &probe{eng: eng}
	s.ReadPagesToChannel(s.Chip(0), 1, a.done())
	s.ReadPagesToChannel(s.Chip(2), 1, b.done()) // other channel
	eng.Run()
	if a.last != b.last {
		t.Fatalf("independent channels serialized: %v vs %v", a.last, b.last)
	}
}

func TestReadPagesToHostAddsPCIe(t *testing.T) {
	eng, s := newSSD(t, smallCfg())
	p := &probe{eng: eng}
	s.ReadPagesToHost(s.Chip(0), 1, p.done())
	eng.Run()
	want := s.Cfg.ReadLatency +
		sim.TransferTime(4096, s.Cfg.ChannelBytesPerSec) +
		sim.TransferTime(4096, s.Cfg.PCIeBytesPerSec)
	if p.last != want {
		t.Fatalf("host read took %v, want %v", p.last, want)
	}
	if s.Counters.HostBytes != 4096 {
		t.Fatalf("HostBytes = %d", s.Counters.HostBytes)
	}
}

func TestProgramPagesLocal(t *testing.T) {
	eng, s := newSSD(t, smallCfg())
	p := &probe{eng: eng}
	s.ProgramPagesLocal(s.Chip(0), 1, p.done())
	eng.Run()
	if p.last != s.Cfg.ProgramLatency {
		t.Fatalf("program took %v", p.last)
	}
	if s.Counters.WriteBytes != 4096 || s.Counters.ProgramPages != 1 {
		t.Fatal("write counters wrong")
	}
}

func TestProgramPagesFromBoardCrossesBus(t *testing.T) {
	eng, s := newSSD(t, smallCfg())
	p := &probe{eng: eng}
	s.ProgramPagesFromBoard(s.Chip(0), 1, p.done())
	eng.Run()
	want := sim.TransferTime(4096, s.Cfg.ChannelBytesPerSec) + s.Cfg.ProgramLatency
	if p.last != want {
		t.Fatalf("board program took %v, want %v", p.last, want)
	}
	if s.Counters.ChannelBytes != 4096 {
		t.Fatal("bus bytes not counted")
	}
}

func TestTransferChannel(t *testing.T) {
	eng, s := newSSD(t, smallCfg())
	p := &probe{eng: eng}
	s.TransferChannelE(s.Channel(0), 333, p.done())
	eng.Run()
	if p.last != sim.TransferTime(333, s.Cfg.ChannelBytesPerSec) {
		t.Fatalf("transfer took %v", p.last)
	}
	if s.Counters.ChannelBytes != 333 {
		t.Fatal("channel bytes")
	}
	// Zero-byte transfer still completes.
	s.TransferChannelE(s.Channel(0), 0, p.done())
	eng.Run()
	if p.n != 2 {
		t.Fatal("zero transfer did not complete")
	}
}

func TestTransferHost(t *testing.T) {
	eng, s := newSSD(t, smallCfg())
	p := &probe{eng: eng}
	s.TransferHost(4_000_000, p.done())
	eng.Run()
	if p.last != sim.Millisecond {
		t.Fatalf("4MB over 4GB/s took %v, want 1ms", p.last)
	}
}

func TestZeroPageOpsComplete(t *testing.T) {
	eng, s := newSSD(t, smallCfg())
	p := &probe{eng: eng}
	s.ReadPagesLocalE(s.Chip(0), 0, p.done())
	s.ReadPagesToChannel(s.Chip(0), 0, p.done())
	s.ReadPagesToHost(s.Chip(0), 0, p.done())
	s.ProgramPagesLocal(s.Chip(0), 0, p.done())
	s.ProgramPagesFromBoard(s.Chip(0), 0, p.done())
	eng.Run()
	if p.n != 5 {
		t.Fatalf("zero-page completions fired %d of 5", p.n)
	}
	if s.Counters.ReadBytes != 0 || s.Counters.WriteBytes != 0 {
		t.Fatal("zero ops moved bytes")
	}
}

func TestTimeSeriesHookRecords(t *testing.T) {
	eng, s := newSSD(t, smallCfg())
	s.ReadTS = metrics.NewTimeSeries(10 * sim.Microsecond)
	s.ChannelTS = metrics.NewTimeSeries(10 * sim.Microsecond)
	s.ReadPagesToChannel(s.Chip(0), 4, sim.Event{})
	eng.Run()
	if s.ReadTS.Total() != 4*4096 {
		t.Fatalf("ReadTS total %v", s.ReadTS.Total())
	}
	if s.ChannelTS.Total() != 4*4096 {
		t.Fatalf("ChannelTS total %v", s.ChannelTS.Total())
	}
}

func TestPagesFor(t *testing.T) {
	_, s := newSSD(t, smallCfg())
	if s.PagesFor(0) != 0 || s.PagesFor(1) != 1 || s.PagesFor(4096) != 1 || s.PagesFor(4097) != 2 {
		t.Fatal("PagesFor rounding wrong")
	}
}

func TestPlaneRoundRobinBalances(t *testing.T) {
	// 80 local reads over 8 planes must finish in exactly 10 read latencies.
	eng, s := newSSD(t, smallCfg())
	p := &probe{eng: eng}
	s.ReadPagesLocalE(s.Chip(0), 80, p.done())
	eng.Run()
	if p.last != 10*s.Cfg.ReadLatency {
		t.Fatalf("80 pages took %v, want %v", p.last, 10*s.Cfg.ReadLatency)
	}
}
