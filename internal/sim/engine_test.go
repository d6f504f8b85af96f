package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := New()
	if e.Now() != 0 {
		t.Fatalf("new engine Now = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("new engine Pending = %d, want 0", e.Pending())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	r := &recorder{eng: e}
	e.Schedule(30, Event{Target: r, A: 3})
	e.Schedule(10, Event{Target: r, A: 1})
	e.Schedule(20, Event{Target: r, A: 2})
	e.Run()
	want := []int32{1, 2, 3}
	for i := range want {
		if r.ids[i] != want[i] {
			t.Fatalf("order = %v, want %v", r.ids, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("final Now = %v, want 30", e.Now())
	}
}

func TestSameTimeEventsFireInScheduleOrder(t *testing.T) {
	e := New()
	r := &recorder{eng: e}
	for i := 0; i < 16; i++ {
		e.Schedule(5, Event{Target: r, A: int32(i)})
	}
	e.Run()
	for i, v := range r.ids {
		if v != int32(i) {
			t.Fatalf("same-time events reordered: %v", r.ids)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := New()
	var at Time
	h := new(handlerFunc)
	h.fn = func(ev Event) {
		if ev.Kind == 0 {
			e.ScheduleAfter(50, Event{Target: h, Kind: 1})
			return
		}
		at = e.Now()
	}
	e.Schedule(100, Event{Target: h})
	e.Run()
	if at != 150 {
		t.Fatalf("ScheduleAfter fired at %v, want 150", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	h := new(handlerFunc)
	h.fn = func(Event) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(50, Event{Target: h})
	}
	e.Schedule(100, Event{Target: h})
	e.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.ScheduleAfter(-1, Event{Target: handle(func(Event) {})})
}

func TestEventsScheduledDuringExecution(t *testing.T) {
	e := New()
	count := 0
	chain := new(handlerFunc)
	chain.fn = func(Event) {
		count++
		if count < 10 {
			e.ScheduleAfter(7, Event{Target: chain})
		}
	}
	e.ScheduleAfter(0, Event{Target: chain})
	e.Run()
	if count != 10 {
		t.Fatalf("chain executed %d times, want 10", count)
	}
	if e.Now() != 9*7 {
		t.Fatalf("final time %v, want 63", e.Now())
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := New()
	fired := map[Time]bool{}
	h := handle(func(Event) { fired[e.Now()] = true })
	for _, at := range []Time{10, 20, 30, 40} {
		e.Schedule(at, Event{Target: h})
	}
	e.RunUntil(25)
	if !fired[10] || !fired[20] {
		t.Error("events before deadline did not fire")
	}
	if fired[30] || fired[40] {
		t.Error("events after deadline fired early")
	}
	if e.Now() != 25 {
		t.Fatalf("Now = %v, want 25 after RunUntil(25)", e.Now())
	}
	e.Run()
	if !fired[30] || !fired[40] {
		t.Error("remaining events lost after RunUntil")
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := New()
	e.RunUntil(1000)
	if e.Now() != 1000 {
		t.Fatalf("Now = %v, want 1000", e.Now())
	}
}

func TestProcessedCount(t *testing.T) {
	e := New()
	nop := handle(func(Event) {})
	for i := 0; i < 25; i++ {
		e.Schedule(Time(i), Event{Target: nop})
	}
	e.Run()
	if e.Processed() != 25 {
		t.Fatalf("Processed = %d, want 25", e.Processed())
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := New()
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
	}
}

// Property: for any set of non-negative delays, events fire in sorted order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New()
		r := &recorder{eng: e}
		for _, d := range delays {
			e.Schedule(Time(d), Event{Target: r})
		}
		e.Run()
		for i := 1; i < len(r.times); i++ {
			if r.times[i-1] > r.times[i] {
				return false
			}
		}
		return len(r.times) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{5, "5ns"},
		{1500, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeSeconds(t *testing.T) {
	if s := (2500 * Millisecond).Seconds(); s != 2.5 {
		t.Fatalf("Seconds = %v, want 2.5", s)
	}
}
