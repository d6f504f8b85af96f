package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// recorder is a Handler that logs (now, A) pairs as events fire.
type recorder struct {
	eng   *Engine
	times []Time
	ids   []int32
}

func (r *recorder) HandleEvent(ev Event) {
	r.times = append(r.times, r.eng.Now())
	r.ids = append(r.ids, ev.A)
}

// checkDrainOrder schedules the given times as typed events and verifies the
// drain respects (time, insertion-order): timestamps non-decreasing, and
// among equal timestamps the insertion ids ascending. It also cross-checks
// against a stable sort of the schedule — the reference the old
// container/heap kernel implemented.
func checkDrainOrder(t *testing.T, times []Time) {
	t.Helper()
	e := New()
	r := &recorder{eng: e}
	for i, at := range times {
		e.Schedule(at, Event{Target: r, A: int32(i)})
	}
	e.Run()
	if len(r.times) != len(times) {
		t.Fatalf("drained %d events, scheduled %d", len(r.times), len(times))
	}
	ref := make([]int, len(times))
	for i := range ref {
		ref[i] = i
	}
	sort.SliceStable(ref, func(a, b int) bool { return times[ref[a]] < times[ref[b]] })
	for i := range ref {
		if got, want := r.ids[i], int32(ref[i]); got != want {
			t.Fatalf("drain position %d: got event %d (t=%d), want event %d (t=%d)",
				i, got, times[got], want, times[want])
		}
		if i > 0 && r.times[i] < r.times[i-1] {
			t.Fatalf("time went backwards at position %d: %d after %d", i, r.times[i], r.times[i-1])
		}
	}
}

// TestHeapDrainOrderRandom drives the 4-ary heap with random schedules of
// varying sizes and duplicate-heavy time distributions.
func TestHeapDrainOrderRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 5, 17, 64, 257, 4096} {
		for _, span := range []int64{1, 3, 10, 1 << 30} {
			times := make([]Time, n)
			for i := range times {
				times[i] = Time(rng.Int63n(span))
			}
			checkDrainOrder(t, times)
		}
	}
}

// TestHeapInterleavedScheduling schedules new events from inside handlers
// (the simulation's actual usage pattern) and checks monotonic time.
func TestHeapInterleavedScheduling(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(11))
	var fired int
	var last Time
	var h Handler
	h = handlerFunc(func(ev Event) {
		if e.Now() < last {
			t.Fatalf("time went backwards: %v after %v", e.Now(), last)
		}
		last = e.Now()
		fired++
		if ev.B > 0 {
			// Re-arm with a random non-negative delay, including 0 (same
			// instant: must fire after everything already scheduled then).
			e.ScheduleAfter(Time(rng.Int63n(5)), Event{Target: h, B: ev.B - 1})
		}
	})
	for i := 0; i < 32; i++ {
		e.Schedule(Time(rng.Int63n(100)), Event{Target: h, B: 8})
	}
	e.Run()
	if want := 32 * 9; fired != want {
		t.Fatalf("fired %d events, want %d", fired, want)
	}
}

type handlerFunc func(Event)

func (f handlerFunc) HandleEvent(ev Event) { f(ev) }

// FuzzHeapDrainOrder fuzzes the (time, seq) drain invariant with arbitrary
// byte-derived schedules.
func FuzzHeapDrainOrder(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 0, 5})
	f.Add([]byte{255, 0, 255, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1<<12 {
			t.Skip()
		}
		times := make([]Time, len(data))
		for i, b := range data {
			times[i] = Time(b % 17) // heavy duplication stresses tie-breaks
		}
		checkDrainOrder(t, times)
	})
}

// TestTypedEventPayload checks the payload fields round-trip.
func TestTypedEventPayload(t *testing.T) {
	e := New()
	var got Event
	h := handlerFunc(func(ev Event) { got = ev })
	e.Schedule(5, Event{Target: h, Kind: 9, A: -3, B: 4, C: 1 << 40})
	e.Run()
	if got.Kind != 9 || got.A != -3 || got.B != 4 || got.C != 1<<40 {
		t.Fatalf("payload corrupted: %+v", got)
	}
}

// TestScheduleNilTargetPanics pins the nil-target guard.
func TestScheduleNilTargetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nil target")
		}
	}()
	New().Schedule(0, Event{})
}

// appender is a second Handler type that logs event payloads into a shared
// slice.
type appender struct{ order *[]int }

func (a appender) HandleEvent(ev Event) { *a.order = append(*a.order, int(ev.A)) }

// TestMixedTypedAndClosureOrder interleaves events for two different
// handlers at the same instant: insertion order must win regardless of
// target.
func TestMixedTypedAndClosureOrder(t *testing.T) {
	e := New()
	var order []int
	h := handlerFunc(func(ev Event) { order = append(order, int(ev.A)) })
	g := appender{&order}
	for i, tgt := range []Handler{h, g, h, g} {
		e.Schedule(10, Event{Target: tgt, A: int32(i)})
	}
	e.Run()
	if len(order) != 4 {
		t.Fatalf("drained %d of 4 events", len(order))
	}
	for i, v := range order {
		if i != v {
			t.Fatalf("mixed-target drain = %v", order)
		}
	}
}

// TestTypedSchedulingAllocFree guards the tentpole invariant: scheduling and
// draining typed events through a warm heap performs zero allocations.
func TestTypedSchedulingAllocFree(t *testing.T) {
	e := New()
	h := handlerFunc(func(ev Event) {})
	// Warm the heap's backing array.
	for i := 0; i < 64; i++ {
		e.ScheduleAfter(Time(i%7), Event{Target: h})
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.ScheduleAfter(3, Event{Target: h})
		e.ScheduleAfter(1, Event{Target: h})
		e.ScheduleAfter(2, Event{Target: h})
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("typed schedule/drain allocated %.1f times per run, want 0", allocs)
	}
}

// TestQueueAcquireEventAllocFree guards the typed queue path.
func TestQueueAcquireEventAllocFree(t *testing.T) {
	e := New()
	q := NewQueue(e)
	h := handlerFunc(func(ev Event) {})
	q.AcquireEvent(5, Event{Target: h})
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		q.AcquireEvent(5, Event{Target: h})
		q.AcquireAfter(e.Now()+2, 3, Event{Target: h})
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("typed queue acquire allocated %.1f times per run, want 0", allocs)
	}
}
