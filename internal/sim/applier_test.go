package sim

import "testing"

// applierRecorder is a minimal "mutable model": a value events read, and a
// timestamped change list the applier hook replays with a cursor, mirroring
// exactly how core replays a mutation stream.
type applierRecorder struct {
	value   int
	changes []struct {
		at  Time
		val int
	}
	cursor int
}

func (r *applierRecorder) apply(next Time) {
	for r.cursor < len(r.changes) && r.changes[r.cursor].at <= next {
		r.value = r.changes[r.cursor].val
		r.cursor++
	}
}

// TestApplierVisibility pins the visibility rule: a change stamped T is
// seen by the first event at time >= T and by no event before it.
func TestApplierVisibility(t *testing.T) {
	cases := []struct {
		name       string
		eventTimes []Time
		changeAt   Time
		// Index of the first event that must observe the change; -1 = none.
		firstVisible int
	}{
		{"between events", []Time{10, 20, 30}, 15, 1},
		{"exactly at an event", []Time{10, 20, 30}, 20, 1},
		{"before the first event", []Time{10, 20, 30}, 0, 0},
		{"after the last event", []Time{10, 20, 30}, 31, -1},
		{"at the first event", []Time{10, 20, 30}, 10, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			r := &applierRecorder{}
			r.changes = append(r.changes, struct {
				at  Time
				val int
			}{tc.changeAt, 1})
			seen := make([]int, 0, len(tc.eventTimes))
			h := handle(func(Event) { seen = append(seen, r.value) })
			for _, at := range tc.eventTimes {
				e.Schedule(at, Event{Target: h})
			}
			e.SetApplier(r.apply)
			e.Run()
			for i, v := range seen {
				want := 0
				if tc.firstVisible >= 0 && i >= tc.firstVisible {
					want = 1
				}
				if v != want {
					t.Fatalf("event %d (t=%v) saw value %d, want %d", i, tc.eventTimes[i], v, want)
				}
			}
		})
	}
}

// TestApplierEqualTimestampsStreamOrder pins that changes sharing one
// timestamp apply in stream order, atomically before the first event at or
// after that time: the event sees the LAST value, never an intermediate.
func TestApplierEqualTimestampsStreamOrder(t *testing.T) {
	e := New()
	r := &applierRecorder{}
	for i, v := range []int{7, 3, 9} {
		_ = i
		r.changes = append(r.changes, struct {
			at  Time
			val int
		}{5, v})
	}
	var got []int
	h := handle(func(Event) { got = append(got, r.value) })
	for _, at := range []Time{4, 5, 6} {
		e.Schedule(at, Event{Target: h})
	}
	e.SetApplier(r.apply)
	e.Run()
	want := []int{0, 9, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d saw %d, want %d (got %v)", i, got[i], want[i], want)
		}
	}
	if r.cursor != len(r.changes) {
		t.Fatalf("cursor = %d, want %d", r.cursor, len(r.changes))
	}
}

// TestApplierRunUntil pins the same visibility rule under the deadline
// drain: changes beyond the deadline stay unapplied even though the clock
// advances to the deadline.
func TestApplierRunUntil(t *testing.T) {
	e := New()
	r := &applierRecorder{}
	r.changes = append(r.changes,
		struct {
			at  Time
			val int
		}{15, 1},
		struct {
			at  Time
			val int
		}{40, 2},
	)
	var got []int
	h := handle(func(Event) { got = append(got, r.value) })
	for _, at := range []Time{10, 20, 50} {
		e.Schedule(at, Event{Target: h})
	}
	e.SetApplier(r.apply)
	if end := e.RunUntil(30); end != 30 {
		t.Fatalf("RunUntil = %v, want 30", end)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("pre-deadline observations = %v, want [0 1]", got)
	}
	// The t=40 change must not have applied: no event at or after it ran.
	if r.cursor != 1 {
		t.Fatalf("cursor = %d after deadline, want 1", r.cursor)
	}
	e.Run()
	if len(got) != 3 || got[2] != 2 {
		t.Fatalf("post-resume observations = %v, want [0 1 2]", got)
	}
}

// TestApplierNoOpHookIsInvisible pins that installing an applier that never
// changes external state leaves the timeline bit-identical: same event
// order, same clock, same processed count.
func TestApplierNoOpHookIsInvisible(t *testing.T) {
	run := func(withHook bool) (order []int, end Time, processed uint64) {
		e := New()
		h := handle(func(ev Event) { order = append(order, int(ev.A)) })
		for i := 0; i < 50; i++ {
			// Deliberately colliding timestamps to exercise seq-order ties.
			e.Schedule(Time(i%7)*10, Event{Target: h, A: int32(i)})
		}
		if withHook {
			e.SetApplier(func(Time) {})
		}
		end = e.Run()
		processed = e.Processed()
		return
	}
	a, aEnd, aProc := run(false)
	b, bEnd, bProc := run(true)
	if aEnd != bEnd || aProc != bProc {
		t.Fatalf("clock/processed diverged: (%v,%d) vs (%v,%d)", aEnd, aProc, bEnd, bProc)
	}
	if len(a) != len(b) {
		t.Fatalf("order length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order[%d] = %d with hook, %d without", i, b[i], a[i])
		}
	}
}
