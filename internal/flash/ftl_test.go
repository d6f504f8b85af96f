package flash

import (
	"testing"
	"testing/quick"

	"flashwalker/internal/rng"
	"flashwalker/internal/sim"
)

// ftlCfg is a tiny geometry so GC triggers quickly: 1 channel, 1 chip,
// 1 die, 2 planes, 8 blocks/plane, 4 pages/block = 64 physical pages.
func ftlCfg() Config {
	c := Default()
	c.Channels = 1
	c.ChipsPerChannel = 1
	c.DiesPerChip = 1
	c.PlanesPerDie = 2
	c.BlocksPerPlane = 8
	c.PagesPerBlock = 4
	return c
}

func newFTL(t *testing.T, logical int64) (*sim.Engine, *SSD, *FTL) {
	t.Helper()
	eng := sim.New()
	ssd, err := New(eng, ftlCfg())
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFTL(ssd, logical)
	if err != nil {
		t.Fatal(err)
	}
	return eng, ssd, f
}

func TestFTLRejectsBadSizing(t *testing.T) {
	eng := sim.New()
	ssd, _ := New(eng, ftlCfg())
	if _, err := NewFTL(ssd, 0); err == nil {
		t.Fatal("zero logical space accepted")
	}
	// 64 physical pages, 2 planes x 3 reserve blocks x 4 pages = 24
	// reserved: logical space beyond 40 must be rejected.
	if _, err := NewFTL(ssd, 41); err == nil {
		t.Fatal("logical space inside the GC reserve accepted")
	}
	if _, err := NewFTL(ssd, 40); err != nil {
		t.Fatalf("maximum legal logical space rejected: %v", err)
	}
}

func TestFTLWriteReadRoundTrip(t *testing.T) {
	eng, _, f := newFTL(t, 32)
	if f.Mapped(5) {
		t.Fatal("unwritten page mapped")
	}
	if err := f.Write(5, sim.Event{}); err != nil {
		t.Fatal(err)
	}
	if !f.Mapped(5) {
		t.Fatal("written page unmapped")
	}
	p := &probe{eng: eng}
	if err := f.Read(5, p.done()); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if p.n != 1 {
		t.Fatal("read completion never fired")
	}
}

func TestFTLReadUnmappedFails(t *testing.T) {
	_, _, f := newFTL(t, 32)
	if err := f.Read(3, sim.Event{}); err == nil {
		t.Fatal("unmapped read succeeded")
	}
	if err := f.Read(-1, sim.Event{}); err == nil {
		t.Fatal("negative lpn accepted")
	}
	if err := f.Read(99, sim.Event{}); err == nil {
		t.Fatal("out-of-range lpn accepted")
	}
	if err := f.Write(99, sim.Event{}); err == nil {
		t.Fatal("out-of-range write accepted")
	}
}

func TestFTLOverwriteInvalidatesOld(t *testing.T) {
	eng, _, f := newFTL(t, 32)
	for i := 0; i < 5; i++ {
		if err := f.Write(7, sim.Event{}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if f.ValidPages() != 1 {
		t.Fatalf("ValidPages = %d after overwrites, want 1", f.ValidPages())
	}
	if f.Stats.HostWrites != 5 {
		t.Fatalf("HostWrites = %d", f.Stats.HostWrites)
	}
}

func TestFTLTrim(t *testing.T) {
	_, _, f := newFTL(t, 32)
	if err := f.Write(4, sim.Event{}); err != nil {
		t.Fatal(err)
	}
	if err := f.Trim(4); err != nil {
		t.Fatal(err)
	}
	if f.Mapped(4) {
		t.Fatal("trimmed page still mapped")
	}
	if err := f.Trim(-1); err == nil {
		t.Fatal("bad trim accepted")
	}
	// Trimming an unmapped page is a no-op.
	if err := f.Trim(4); err != nil {
		t.Fatal(err)
	}
}

func TestFTLGarbageCollectionReclaims(t *testing.T) {
	// Hammer a small logical space: GC must run and the device must never
	// fill.
	eng, ssd, f := newFTL(t, 24)
	r := rng.New(1)
	for i := 0; i < 2000; i++ {
		lpn := int64(r.Intn(24))
		if err := f.Write(lpn, sim.Event{}); err != nil {
			t.Fatalf("write %d failed: %v (GC runs=%d)", i, err, f.Stats.GCRuns)
		}
	}
	eng.Run()
	if f.Stats.GCRuns == 0 {
		t.Fatal("GC never ran despite heavy overwrites")
	}
	if f.Stats.Erases == 0 || ssd.Counters.ErasedBlocks == 0 {
		t.Fatal("no erases recorded")
	}
	if f.Stats.WriteAmplification() <= 1 {
		t.Fatalf("write amplification %v <= 1 with GC active", f.Stats.WriteAmplification())
	}
	// All 24 logical pages last written are still readable.
	for lpn := int64(0); lpn < 24; lpn++ {
		if f.Mapped(lpn) {
			if err := f.Read(lpn, sim.Event{}); err != nil {
				t.Fatalf("read after GC failed: %v", err)
			}
		}
	}
}

func TestFTLMappingConsistencyUnderChurn(t *testing.T) {
	// Property: after arbitrary write/trim sequences, l2p and p2l agree.
	eng, _, f := newFTL(t, 24)
	r := rng.New(2)
	for i := 0; i < 3000; i++ {
		lpn := int64(r.Intn(24))
		if r.Bool(0.2) {
			if err := f.Trim(lpn); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := f.Write(lpn, sim.Event{}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	// Check the bidirectional mapping.
	for lpn, ppn := range f.l2p {
		if ppn >= 0 && f.p2l[ppn] != int64(lpn) {
			t.Fatalf("l2p[%d]=%d but p2l[%d]=%d", lpn, ppn, ppn, f.p2l[ppn])
		}
	}
	mapped := int64(0)
	for ppn, lpn := range f.p2l {
		if lpn >= 0 {
			mapped++
			if f.l2p[lpn] != int64(ppn) {
				t.Fatalf("p2l[%d]=%d but l2p[%d]=%d", ppn, lpn, lpn, f.l2p[lpn])
			}
		}
	}
	if mapped != f.ValidPages() {
		t.Fatalf("p2l has %d mapped, ValidPages %d", mapped, f.ValidPages())
	}
}

func TestFTLValidCountsConsistent(t *testing.T) {
	eng, _, f := newFTL(t, 24)
	r := rng.New(3)
	for i := 0; i < 1500; i++ {
		if err := f.Write(int64(r.Intn(24)), sim.Event{}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	var metaValid int
	for _, b := range f.blocks {
		if b.valid < 0 || b.valid > f.pagesPerBlock {
			t.Fatalf("block valid count %d out of range", b.valid)
		}
		metaValid += b.valid
	}
	if int64(metaValid) != f.ValidPages() {
		t.Fatalf("block metadata says %d valid, maps say %d", metaValid, f.ValidPages())
	}
}

func TestFTLWearLeveling(t *testing.T) {
	// After long uniform churn, wear should be reasonably even: the max
	// erase count should not exceed a small multiple of the min.
	eng, _, f := newFTL(t, 24)
	r := rng.New(4)
	for i := 0; i < 20000; i++ {
		if err := f.Write(int64(r.Intn(24)), sim.Event{}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	max, min := f.MaxErases(), f.MinErasesFullyUsed()
	if max == 0 {
		t.Fatal("no wear recorded")
	}
	if min == 0 || max > 8*min {
		t.Fatalf("wear imbalance: max %d, min %d", max, min)
	}
}

func TestFTLTimingUsesPlanes(t *testing.T) {
	eng, ssd, f := newFTL(t, 32)
	p := &probe{eng: eng}
	if err := f.Write(0, p.done()); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if p.last != ssd.Cfg.ProgramLatency {
		t.Fatalf("write completed at %v, want %v", p.last, ssd.Cfg.ProgramLatency)
	}
}

func TestFTLDeviceFull(t *testing.T) {
	// Fill the entire logical space, then keep overwriting: every write
	// must succeed (GC reclaims invalidated space out of the reserve).
	eng, _, f := newFTL(t, 40) // the maximum legal logical space
	for lpn := int64(0); lpn < 40; lpn++ {
		if err := f.Write(lpn, sim.Event{}); err != nil {
			t.Fatalf("initial fill failed at %d: %v", lpn, err)
		}
	}
	r := rng.New(5)
	for i := 0; i < 2000; i++ {
		if err := f.Write(int64(r.Intn(40)), sim.Event{}); err != nil {
			t.Fatalf("overwrite %d failed: %v", i, err)
		}
	}
	eng.Run()
	if f.ValidPages() != 40 {
		t.Fatalf("ValidPages = %d, want 40", f.ValidPages())
	}
}

func TestFTLLogicalPages(t *testing.T) {
	_, _, f := newFTL(t, 40)
	if f.LogicalPages() != 40 {
		t.Fatal("LogicalPages")
	}
}

func TestFTLAddressingRoundTripProperty(t *testing.T) {
	_, _, f := newFTL(t, 32)
	check := func(plane8, block8, page8 uint8) bool {
		plane := int(plane8) % f.planes
		block := int(block8) % f.blocksPerPlane
		page := int(page8) % f.pagesPerBlock
		p, b, pg := f.decompose(f.ppn(plane, block, page))
		return p == plane && b == block && pg == page
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestFTLWriteAmplificationNoGC(t *testing.T) {
	var s FTLStats
	if s.WriteAmplification() != 1 {
		t.Fatal("empty stats WA != 1")
	}
	s.HostWrites = 10
	s.GCWrites = 5
	if s.WriteAmplification() != 1.5 {
		t.Fatal("WA math wrong")
	}
}
