package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"
)

// TestRunUntilBelowNextWindow stops the clock at a deadline below the
// window of the next pending event, then schedules at the deadline and one
// nanosecond after it. Both must fire first, at their own times. A
// nextTime that moved the window to the pending event's window would leave
// the clock below the window and file both a lap ahead.
func TestRunUntilBelowNextWindow(t *testing.T) {
	cases := []struct{ next, deadline Time }{
		{3*nearSize + 100, 50},                         // deadline in the current window
		{3*nearSize + 100, nearSize + 50},              // in a later window, below the event's
		{3*nearSize + 100, 3*nearSize - 1},             // the nanosecond before the event's window
		{horizon + 5*nearSize + 7, 2*nearSize + 9},     // the event waits in the heap
		{horizon + 5*nearSize + 7, horizon + nearSize}, // the deadline is past the first horizon
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("next=%d/deadline=%d", c.next, c.deadline), func(t *testing.T) {
			e := New()
			r := &recorder{eng: e}
			e.Schedule(c.next, Event{Target: r, A: 0})
			if got := e.RunUntil(c.deadline); got != c.deadline || len(r.ids) != 0 {
				t.Fatalf("RunUntil(%d) = %d after %d events, want the deadline and none", c.deadline, got, len(r.ids))
			}
			e.Schedule(c.deadline, Event{Target: r, A: 1})
			e.Schedule(c.deadline+1, Event{Target: r, A: 2})
			e.Run()
			wantTimes := []Time{c.deadline, c.deadline + 1, c.next}
			if !slices.Equal(r.ids, []int32{1, 2, 0}) || !slices.Equal(r.times, wantTimes) {
				t.Fatalf("drained ids %v at %v, want [1 2 0] at %v", r.ids, r.times, wantTimes)
			}
		})
	}
}

// spawnDeltas is a menu of scheduling delays heavy in the level boundaries.
var spawnDeltas = []Time{
	0, 1, 2, 7, 300,
	nearSize - 1, nearSize, nearSize + 1, 2 * nearSize,
	horizon - nearSize, horizon - 1, horizon, horizon + 1,
	5 * Millisecond,
}

// spawnLog is one fired event: its time and its id.
type spawnLog struct {
	at Time
	id int64
}

// spawner is a handler-driven schedule whose every decision is a pure
// function of the event it handles: C is the event's id, B its remaining
// depth, and the children's delays come from a hash of the id. An engine
// restored from an export therefore continues exactly as the exporting
// engine would have.
type spawner struct {
	eng *Engine
	log []spawnLog
}

func (s *spawner) HandleEvent(ev Event) {
	s.log = append(s.log, spawnLog{s.eng.Now(), ev.C})
	if ev.B == 0 {
		return
	}
	h := mix(uint64(ev.C))
	for k := int64(0); k < int64(h%3); k++ {
		h = mix(h)
		d := spawnDeltas[h%uint64(len(spawnDeltas))] + Time(h>>40&63)
		s.eng.ScheduleAfter(d, Event{Target: s, B: ev.B - 1, C: ev.C*3 + k + 1})
	}
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// newSpawner seeds 256 root events across the level boundaries.
func newSpawner() (*Engine, *spawner) {
	e := New()
	s := &spawner{eng: e}
	for i := 0; i < 256; i++ {
		e.Schedule(spawnDeltas[i%len(spawnDeltas)]+Time(i), Event{Target: s, B: 12, C: int64(i)})
	}
	return e, s
}

// TestExportImportRoundTrip cuts a handler-driven schedule at random event
// counts and random RunUntil deadlines, exports the engine, imports the
// state into a fresh engine and drains it there. The resumed drain must
// equal the uninterrupted one, event for event, and the imported engine
// must export the same pending events in the same order.
func TestExportImportRoundTrip(t *testing.T) {
	e, s := newSpawner()
	e.Run()
	want := s.log
	if len(want) < 500 {
		t.Fatalf("the schedule fired only %d events", len(want))
	}
	end := e.Now()
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		e, s := newSpawner()
		if trial%2 == 0 {
			for n := r.Intn(len(want) + 1); n > 0; n-- {
				e.Step()
			}
		} else {
			e.RunUntil(Time(r.Int63n(int64(end) + 1)))
		}
		st := e.ExportState()
		e2 := New()
		s2 := &spawner{eng: e2, log: slices.Clone(s.log)}
		e2.Register(s2)
		if err := e2.ImportState(st); err != nil {
			t.Fatal(err)
		}
		if e2.Now() != e.Now() || e2.Pending() != e.Pending() || e2.Processed() != e.Processed() {
			t.Fatalf("trial %d: imported now %v pending %d processed %d, exported %v %d %d", trial,
				e2.Now(), e2.Pending(), e2.Processed(), e.Now(), e.Pending(), e.Processed())
		}
		if st2 := e2.ExportState(); !reflect.DeepEqual(st.Events, st2.Events) {
			t.Fatalf("trial %d: the imported engine exports its pending events differently", trial)
		}
		e2.Run()
		if !slices.Equal(s2.log, want) {
			t.Fatalf("trial %d: a cut at %v after %d events resumes to a different drain", trial, st.Now, st.Processed)
		}
	}
}

// TestBurstAllocation bounds what a launch burst allocates: 100k events
// filed into a fresh engine across the wheels' horizon cost their 32-byte
// slab entries, written once into fixed chunks, plus the engine itself —
// no megabyte-scale wheel and no growth copies of the slab.
func TestBurstAllocation(t *testing.T) {
	const n = 100_000
	h := handle(func(Event) {})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e := New()
	for i := 0; i < n; i++ {
		e.Schedule(Time(i)*7919%horizon, Event{Target: h})
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(n) * uint64(unsafe.Sizeof(slabEntry{})) * 11 / 10; got > limit {
		t.Fatalf("a %d-event burst allocated %d bytes, want at most %d", n, got, limit)
	}
	if e.Run(); e.Processed() != n {
		t.Fatalf("drained %d of %d events", e.Processed(), n)
	}
}

// fuzzDelta maps a byte to a scheduling delay from now: a menu heavy in
// level boundaries relative to now, an offset around an aligned window
// boundary ahead of now, or a small spread.
func fuzzDelta(now Time, b byte) Time {
	switch {
	case b < 0x80:
		return spawnDeltas[int(b)%len(spawnDeltas)]
	case b < 0xc0:
		ahead := []Time{1, 2, farSize - 2, farSize - 1, farSize, farSize + 1}[int(b&0x3f)%6]
		at := now&^nearMask + ahead*nearSize + Time(int(b>>3&7)%3-1)
		return max(at-now, 0)
	default:
		return Time(b-0xc0) * 61
	}
}

// FuzzEngineDrainOrder drives one engine with a byte-coded mix of
// schedules, single steps, RunUntil deadlines and export/import into a
// fresh engine, and checks every fired event, its time and the clock
// against a sorted reference of the pending schedule.
func FuzzEngineDrainOrder(f *testing.F) {
	f.Add([]byte{0, 5, 0, 9, 1, 0, 2, 10, 3, 0, 1, 0})
	f.Add([]byte{0, 0x81, 0, 0x83, 0, 0x85, 2, 0x82, 0, 0x80, 3, 0, 1, 0, 1, 0})
	f.Add([]byte{0, 11, 0, 12, 0, 13, 2, 5, 3, 0, 0, 0xc1, 2, 12, 1, 0})
	f.Add([]byte{0, 8, 2, 7, 0, 7, 0, 6, 3, 0, 2, 0x84, 1, 0, 0, 0xff, 1, 0})
	// Two heap entries for the window at the horizon, the later time
	// scheduled first (0x90: window start + 1, 0x8a: + 0), and a tie with
	// the first. A RunUntil into the next window migrates them into their
	// far bucket in (time, seq) order, out of schedule order; then one cut
	// with the tie pending, and a fourth event (delay 9: horizon - nearSize)
	// at the same time as the second, which must fire after it.
	f.Add([]byte{0, 0x90, 0, 0x8a, 0, 0x90, 2, 6, 3, 0, 0, 9, 1, 0, 1, 0})
	// Three heap entries at one time across a cut: the heap is not stable,
	// so only their numbers keep their order.
	f.Add([]byte{0, 0x90, 0, 0x90, 0, 0x90, 3, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			t.Skip()
		}
		type pend struct {
			at Time
			id int32 // schedule order, so (at, id) is the (time, seq) order
		}
		e := New()
		var ref, fired []pend
		h := handle(func(ev Event) { fired = append(fired, pend{e.Now(), ev.A}) })
		// expect checks that the events fired since the last check are the
		// first n of the reference, then drops them from it.
		expect := func(op int, n int) {
			if !slices.Equal(fired, ref[:n]) {
				t.Fatalf("op %d: fired %v, want %v", op, fired, ref[:n])
			}
			ref, fired = ref[n:], fired[:0]
		}
		var next int32
		for i := 0; i+1 < len(data); i += 2 {
			now := e.Now()
			switch arg := data[i+1]; data[i] % 4 {
			case 0:
				p := pend{now + fuzzDelta(now, arg), next}
				next++
				e.Schedule(p.at, Event{Target: h, A: p.id})
				k := sort.Search(len(ref), func(j int) bool { return ref[j].at > p.at })
				ref = slices.Insert(ref, k, p)
			case 1:
				if e.Step() != (len(ref) > 0) {
					t.Fatalf("op %d: Step with %d pending in the reference", i, len(ref))
				}
				expect(i, min(len(ref), 1))
			case 2:
				deadline := now + fuzzDelta(now, arg)
				if got := e.RunUntil(deadline); got != deadline {
					t.Fatalf("op %d: RunUntil(%v) left the clock at %v", i, deadline, got)
				}
				expect(i, sort.Search(len(ref), func(j int) bool { return ref[j].at > deadline }))
			case 3:
				st := e.ExportState()
				e = New()
				e.Register(h)
				if err := e.ImportState(st); err != nil {
					t.Fatal(err)
				}
				if e.Now() != now {
					t.Fatalf("op %d: import moved the clock from %v to %v", i, now, e.Now())
				}
			}
			if e.Pending() != len(ref) {
				t.Fatalf("op %d: %d pending, reference holds %d", i, e.Pending(), len(ref))
			}
		}
		e.Run()
		expect(len(data), len(ref))
	})
}

// TestImportAtExtremeClocks imports schedules whose clock sits at either
// end of the time range, as a hostile or corrupted snapshot may carry,
// and drains them in order. Levels are chosen by the unsigned offset from
// the window start, so no timestamp overflows the comparison.
func TestImportAtExtremeClocks(t *testing.T) {
	const maxT = Time(math.MaxInt64)
	cases := [][]Time{
		{maxT - horizon - 3, maxT - horizon, maxT - nearSize, maxT - 1, maxT, maxT},
		{math.MinInt64, math.MinInt64 + nearSize, -1, 0, 1, horizon, 5 * Millisecond},
	}
	for _, times := range cases {
		st := EngineState{Now: times[0], Seq: uint64(len(times))}
		for i, at := range times {
			st.Events = append(st.Events, SavedEvent{At: at, Seq: uint64(i + 1)})
		}
		e := New()
		r := &recorder{eng: e}
		e.Register(r)
		if err := e.ImportState(st); err != nil {
			t.Fatal(err)
		}
		e.Run()
		if !slices.Equal(r.times, times) {
			t.Fatalf("drained at %v, want %v", r.times, times)
		}
	}
}

// TestPlainData: a slab entry is 32 bytes and a Stored event at most 24,
// and neither holds a pointer, so the garbage collector never scans the
// slab or a device's pooled completions.
func TestPlainData(t *testing.T) {
	for _, typ := range []struct {
		v    any
		size uintptr
	}{{slabEntry{}, 32}, {Stored{}, 24}} {
		rt := reflect.TypeOf(typ.v)
		if rt.Size() != typ.size {
			t.Errorf("%v is %d bytes, want %d", rt, rt.Size(), typ.size)
		}
		for i := 0; i < rt.NumField(); i++ {
			if k := rt.Field(i).Type.Kind(); k < reflect.Bool || k > reflect.Complex128 {
				t.Errorf("%v.%s is a %v, not a plain number", rt, rt.Field(i).Name, k)
			}
		}
	}
}

// TestImportRefusesUnknownHandler: an image naming a handler index the
// table does not hold is an error, not a panic once the event fires. So is
// one listing more events than its counter numbered, whose export would
// number events past the counter.
func TestImportRefusesUnknownHandler(t *testing.T) {
	for _, target := range []int32{1, -1, 1 << 20} {
		e := New()
		e.Register(&recorder{eng: e})
		st := EngineState{Seq: 1, Events: []SavedEvent{{At: 5, Seq: 1, Target: target}}}
		if err := e.ImportState(st); err == nil {
			t.Errorf("an event naming handler %d of 1 was imported", target)
		}
	}
	e := New()
	e.Register(&recorder{eng: e})
	st := EngineState{Seq: 1, Events: []SavedEvent{{At: 5, Seq: 1}, {At: 6, Seq: 1}}}
	if err := e.ImportState(st); err == nil {
		t.Error("two events numbered by a counter at 1 were imported")
	}
}

// uncomparable is a Handler whose dynamic type has no ==.
type uncomparable struct{ log []Time }

func (uncomparable) HandleEvent(Event) {}

// TestRegisterRefusesUncomparable: a handler whose dynamic type is not
// comparable panics at registration — through Register or on its first
// Schedule — with a message naming the type.
func TestRegisterRefusesUncomparable(t *testing.T) {
	for name, register := range map[string]func(e *Engine){
		"Register": func(e *Engine) { e.Register(uncomparable{}) },
		"Schedule": func(e *Engine) { e.Schedule(1, Event{Target: uncomparable{}}) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "sim.uncomparable") {
					t.Errorf("%s: panic %q does not name the handler type", name, msg)
				}
			}()
			register(New())
		}()
	}
}

// value is a non-pointer Handler with a non-zero size.
type value struct{ id int }

func (value) HandleEvent(Event) {}

// TestHandlerTable: the zero Engine schedules and runs; each distinct
// target enters the table once, in first-use order, pointer handlers and
// value handlers (boxed afresh by each conversion) alike; and Register
// returns a registered handler's index without growing the table.
func TestHandlerTable(t *testing.T) {
	var e Engine
	r := &recorder{eng: &e}
	for i := 0; i < 3; i++ {
		e.Schedule(Time(i), Event{Target: r, A: int32(i)})
		e.Schedule(Time(i), Event{Target: value{7}})
		e.Schedule(Time(i), Event{Target: value{8}})
	}
	if e.Handlers() != 3 || e.Register(r) != 0 || e.Register(value{7}) != 1 || e.Register(value{8}) != 2 {
		t.Fatalf("table holds %d handlers, want the recorder, value{7} and value{8} in that order", e.Handlers())
	}
	var st Stored
	if e.Store(&st, Event{Target: value{8}, Kind: 4, A: 1, B: 2, C: 3}); st != (Stored{C: 3, A: 1, B: 2, Target: 2, Kind: 4}) {
		t.Fatalf("stored form %+v", st)
	}
	if e.Store(&st, Event{}); !st.None() {
		t.Fatal("the zero event does not store as None")
	}
	e.Run()
	if !slices.Equal(r.ids, []int32{0, 1, 2}) || e.Processed() != 9 {
		t.Fatalf("recorder saw %v of %d events", r.ids, e.Processed())
	}
	e.Store(&st, Event{Target: r, A: 9})
	e.Fire(st)
	if r.ids[len(r.ids)-1] != 9 {
		t.Fatal("Fire did not deliver the stored event")
	}
}
