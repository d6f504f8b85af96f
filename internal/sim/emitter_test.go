package sim

import "testing"

// TestEmitterFiresBetweenEvents proves the emission hook runs on its cadence
// at event boundaries, never halts the drain, and coexists with a checkpoint
// hook on a different interval.
func TestEmitterFiresBetweenEvents(t *testing.T) {
	e := New()
	fired := 0
	h := handlerFunc(func(Event) { fired++ })
	for i := 0; i < 20; i++ {
		e.Schedule(Time(i*10), Event{Target: h})
	}
	var emits []uint64
	e.SetEmitter(4, func() { emits = append(emits, e.Processed()) })
	checks := 0
	e.SetCheckpoint(7, func() bool { checks++; return true })
	e.Run()
	if fired != 20 {
		t.Fatalf("fired %d events, want 20 (emitter must not halt the drain)", fired)
	}
	if e.Halted() {
		t.Fatal("emitter-only run reported halted")
	}
	want := []uint64{4, 8, 12, 16, 20}
	if len(emits) != len(want) {
		t.Fatalf("emitter fired at %v, want %v", emits, want)
	}
	for i := range want {
		if emits[i] != want[i] {
			t.Fatalf("emitter fired at %v, want %v", emits, want)
		}
	}
	if checks == 0 {
		t.Fatal("checkpoint hook starved by emitter")
	}
}

// TestEmitterDoesNotPerturbTimeline runs one schedule bare and once with an
// emitter attached and requires a bit-identical drain: the emitter is a pure
// observer, exactly like the checkpoint hook.
func TestEmitterDoesNotPerturbTimeline(t *testing.T) {
	build := func(e *Engine, log *[]Time) {
		h := handlerFunc(func(Event) { *log = append(*log, e.Now()) })
		for i := 0; i < 50; i++ {
			e.Schedule(Time((i*7)%50), Event{Target: h})
		}
	}
	var plain, hooked []Time
	a := New()
	build(a, &plain)
	a.Run()

	b := New()
	build(b, &hooked)
	calls := 0
	b.SetEmitter(3, func() { calls++ })
	b.Run()

	if len(plain) != len(hooked) {
		t.Fatalf("drain lengths differ: %d vs %d", len(plain), len(hooked))
	}
	for i := range plain {
		if plain[i] != hooked[i] {
			t.Fatalf("timeline diverged at %d: %v vs %v", i, plain[i], hooked[i])
		}
	}
	if calls == 0 {
		t.Fatal("emitter never consulted")
	}
	if a.Now() != b.Now() || a.Processed() != b.Processed() {
		t.Fatalf("final state differs: now %v/%v processed %d/%d",
			a.Now(), b.Now(), a.Processed(), b.Processed())
	}
}

// TestEmitterRunUntil checks the emitter also fires inside RunUntil drains
// and that ClearEmitter detaches it.
func TestEmitterRunUntil(t *testing.T) {
	e := New()
	nop := handlerFunc(func(Event) {})
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i), Event{Target: nop})
	}
	emits := 0
	e.SetEmitter(2, func() { emits++ })
	e.RunUntil(4) // events 0..4 => 5 processed => emits at 2 and 4
	if emits != 2 {
		t.Fatalf("emits = %d after RunUntil(4), want 2", emits)
	}
	e.ClearEmitter()
	e.RunUntil(100)
	if emits != 2 {
		t.Fatalf("cleared emitter still fired: emits = %d", emits)
	}
}
