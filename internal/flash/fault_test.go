package flash

import (
	"testing"

	"flashwalker/internal/fault"
	"flashwalker/internal/sim"
)

// faultWorkload drives a mixed read workload across every chip and returns
// the finish time. done-counting proves no operation is lost to a fault.
func faultWorkload(t *testing.T, s *SSD, eng *sim.Engine) (sim.Time, int) {
	t.Helper()
	p := &probe{eng: eng}
	for i := 0; i < 50; i++ {
		chip := s.Chip(i % s.NumChips())
		s.ReadPagesLocalE(chip, 2, p.done())
		s.ReadPagesToChannel(chip, 1, p.done())
		s.ReadPagesToHost(chip, 1, p.done())
	}
	eng.Run()
	return eng.Now(), p.n
}

func TestZeroRateInjectorIsTimingIdentical(t *testing.T) {
	cleanEng, clean := newSSD(t, smallCfg())
	cleanNow, cleanDone := faultWorkload(t, clean, cleanEng)

	cfg := fault.Default()
	cfg.ReadErrorRate = 0
	cfg.PlaneBusyRate = 0
	zeroEng, zero := newSSD(t, smallCfg())
	zero.AttachFaults(fault.NewInjector(cfg, zero.NumChips()))
	zeroNow, zeroDone := faultWorkload(t, zero, zeroEng)

	if cleanNow != zeroNow || cleanDone != zeroDone {
		t.Fatalf("zero-rate injector perturbed the timeline: clean (%v, %d) vs zero-rate (%v, %d)",
			cleanNow, cleanDone, zeroNow, zeroDone)
	}
	if clean.Counters != zero.Counters {
		t.Fatalf("zero-rate injector changed traffic: %+v vs %+v", clean.Counters, zero.Counters)
	}
}

func TestFaultsDelayButNeverLoseOperations(t *testing.T) {
	cleanEng, clean := newSSD(t, smallCfg())
	_, cleanDone := faultWorkload(t, clean, cleanEng)

	cfg := fault.Default()
	cfg.ReadErrorRate = 0.2 // high enough that 200 senses surely hit some
	faultyEng, faulty := newSSD(t, smallCfg())
	inj := fault.NewInjector(cfg, faulty.NumChips())
	faulty.AttachFaults(inj)
	_, faultyDone := faultWorkload(t, faulty, faultyEng)

	if faultyDone != cleanDone {
		t.Fatalf("faults lost operations: %d completions vs %d clean", faultyDone, cleanDone)
	}
	if inj.Counters.ReadErrors == 0 || inj.Counters.Retries == 0 {
		t.Fatalf("expected injected read errors at rate %v: %+v", cfg.ReadErrorRate, inj.Counters)
	}
	// Retries re-sense pages, so the faulty run reads strictly more. (Wall
	// time is NOT compared: a retry on an idle plane can overlap the busy
	// channel bus and even reshuffle arbitration in the faulty run's favor.)
	if faulty.Counters.ReadPages <= clean.Counters.ReadPages {
		t.Fatalf("retries should re-sense pages: %d <= %d",
			faulty.Counters.ReadPages, clean.Counters.ReadPages)
	}
}

func TestFaultyRunReplaysExactly(t *testing.T) {
	run := func() (sim.Time, fault.Counters, Counters) {
		eng, s := newSSD(t, smallCfg())
		inj := fault.NewInjector(fault.Default(), s.NumChips())
		s.AttachFaults(inj)
		now, _ := faultWorkload(t, s, eng)
		return now, inj.Counters, s.Counters
	}
	aNow, aFaults, aTraffic := run()
	bNow, bFaults, bTraffic := run()
	if aNow != bNow || aFaults != bFaults || aTraffic != bTraffic {
		t.Fatalf("faulty run not reproducible:\n(%v, %+v, %+v)\n(%v, %+v, %+v)",
			aNow, aFaults, aTraffic, bNow, bFaults, bTraffic)
	}
}

func TestDegradedChipServesReadsSlowly(t *testing.T) {
	cfg := fault.Config{
		Enabled:             true,
		ReadErrorRate:       1,
		MaxRetries:          0, // fail, exhaust immediately, proceed
		DegradeAfterErrors:  1,
		DegradedReadPenalty: 65 * sim.Microsecond,
	}
	eng, s := newSSD(t, smallCfg())
	inj := fault.NewInjector(cfg, s.NumChips())
	s.AttachFaults(inj)
	chip := s.Chip(0)
	s.ReadPagesLocalE(chip, 1, sim.Event{}) // first read degrades the chip
	eng.Run()
	if !inj.Degraded(0) {
		t.Fatal("chip 0 should be degraded after its first error")
	}
	start := eng.Now()
	s.ReadPagesLocalE(chip, 1, sim.Event{})
	eng.Run()
	want := s.Cfg.ReadLatency + cfg.DegradedReadPenalty
	if got := eng.Now() - start; got != want {
		t.Fatalf("degraded sense took %v, want %v", got, want)
	}
}
