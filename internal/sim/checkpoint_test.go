package sim

import "testing"

// TestCheckpointHalts proves the hook stops the drain at an event boundary
// and leaves the remaining schedule intact for a resumed Run.
func TestCheckpointHalts(t *testing.T) {
	e := New()
	var fired []int
	stop := false
	h := handlerFunc(func(ev Event) {
		if ev.Kind == 1 {
			stop = true
			return
		}
		fired = append(fired, int(ev.A))
	})
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i*10), Event{Target: h, A: int32(i)})
	}
	e.SetCheckpoint(1, func() bool { return !stop })
	e.Schedule(25, Event{Target: h, Kind: 1}) // fires between event 2 and 3
	e.Run()
	if !e.Halted() {
		t.Fatal("engine did not report halted")
	}
	if len(fired) != 3 {
		t.Fatalf("fired %d events before halt, want 3 (got %v)", len(fired), fired)
	}
	if e.Now() != 25 {
		t.Fatalf("clock at %v, want 25 (the halting event's time)", e.Now())
	}
	if e.Pending() != 7 {
		t.Fatalf("%d events pending after halt, want 7", e.Pending())
	}

	// Resuming drains the rest in order.
	stop = false
	e.Run()
	if e.Halted() {
		t.Fatal("resumed run reported halted")
	}
	if len(fired) != 10 {
		t.Fatalf("resume fired %d total, want 10", len(fired))
	}
	for i, v := range fired {
		if v != i {
			t.Fatalf("events fired out of order: %v", fired)
		}
	}
}

// TestCheckpointDoesNotPerturbTimeline runs the same schedule with and
// without an always-continue hook and checks the observable drain is
// identical: the hook is a pure observer.
func TestCheckpointDoesNotPerturbTimeline(t *testing.T) {
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
	b.SetCheckpoint(3, func() bool { calls++; return true })
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
		t.Fatal("checkpoint hook never consulted")
	}
	if a.Now() != b.Now() || a.Processed() != b.Processed() {
		t.Fatalf("final state differs: now %v/%v processed %d/%d",
			a.Now(), b.Now(), a.Processed(), b.Processed())
	}
}

// TestCheckpointRunUntil checks the hook halts RunUntil before the deadline
// advance.
func TestCheckpointRunUntil(t *testing.T) {
	e := New()
	n := 0
	h := handlerFunc(func(Event) { n++ })
	for i := 0; i < 5; i++ {
		e.Schedule(Time(i), Event{Target: h})
	}
	e.SetCheckpoint(2, func() bool { return n < 2 })
	e.RunUntil(100)
	if !e.Halted() {
		t.Fatal("not halted")
	}
	if e.Now() == 100 {
		t.Fatal("halted run advanced the clock to the deadline")
	}
	e.ClearCheckpoint()
	e.RunUntil(100)
	if e.Halted() || n != 5 || e.Now() != 100 {
		t.Fatalf("after clear: halted=%v n=%d now=%v", e.Halted(), n, e.Now())
	}
}
