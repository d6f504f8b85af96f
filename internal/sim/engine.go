// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is deliberately small: an Engine owns a timing-wheel scheduler
// and executes events in (time, insertion-order) order, so two events
// scheduled for the same instant always fire in the order they were
// scheduled. All FlashWalker hardware models (flash planes, channel buses,
// accelerator updaters and guiders, DRAM) are state machines driven by
// Engine events.
//
// A figure-scale run keeps tens of thousands of events pending (one per
// in-flight walk) at roughly one event per simulated nanosecond, which makes
// a comparison-based heap the simulator's cache bottleneck: every push and
// pop walks ~8 random cache lines of an L3-sized node array. The scheduler
// is therefore a two-level timing wheel that fits in cache:
//
//   - The near wheel has one FIFO bucket per nanosecond of the aligned
//     4,096-ns window that holds now (32 KiB), found through a 64-word
//     occupancy bitmap and a one-word summary of it.
//   - The far wheel has one FIFO bucket per window for the next 255
//     windows (2 KiB), so the two wheels reach 2^20 ns (~1 ms) ahead.
//   - A small 4-ary overflow heap keeps anything later (erase latencies,
//     fault timers).
//
// Inserts and pops are O(1); an event filed in the far wheel is touched
// once more when its window opens. Pending events live in a slab of fixed
// 4,096-entry chunks that never move, linked into bucket lists and a free
// list by index, so a launch burst writes each entry once and growth
// copies nothing.
//
// The drain order is the exact (time, sequence) total order a heap over
// every pending event would produce, so timelines are bit-identical:
//
//   - A near bucket holds one timestamp: the window is aligned, so
//     bucket i holds only window-start + i. Popping the lowest occupied
//     bucket is therefore popping the earliest time; every far entry is
//     in a later window and every heap entry beyond the far horizon.
//   - Each bucket list, near or far, is in seq order per timestamp, so a
//     slab entry needs no seq; only heap nodes carry one. Direct inserts
//     append in increasing seq. The window moves in two places only — pop,
//     when the near wheel is empty, and RunUntil's deadline advance — and
//     each move does two things before any handler runs: it moves the
//     heap entries whose window entered the far horizon into their far
//     buckets, in heap (time, seq) order, and then spills the new window's
//     far bucket into the near wheel in list order. A heap entry for
//     window W was scheduled while W lay beyond the far horizon, and a
//     direct far insert for W needs W inside it; the window only
//     advances, so every heap entry for W was scheduled before every
//     direct far insert for W, and the migration puts it first. Likewise
//     the spill lands in empty near buckets before any direct near insert
//     for the window.
//   - Reading the next event's time never moves the window: with the near
//     wheel empty it scans the first occupied far bucket. Moving it there
//     would let RunUntil stop the clock at a deadline below the window,
//     and a later Schedule between the two would be filed a lap ahead.
//
// Every event is a typed record (Schedule / ScheduleAfter): a Handler
// target, a kind tag, and a small integer payload, dispatched through the
// target's HandleEvent. The kernel stores it as plain data: each Engine
// keeps a table of the handlers it has seen, and a pending event holds its
// target's index in that table in place of the interface. A slab entry is
// therefore 32 bytes with no pointer in it, the garbage collector never
// scans the slab, and ExportState copies pending events as they are. A
// Handler's dynamic type must be comparable — a pointer, typically —
// because Schedule finds a target's index by comparing it with the table;
// registering one that is not panics. A handler enters the table on its
// first Schedule, or earlier through Register, which lets a caller fix the
// indices its images name. Scheduling allocates nothing in steady state
// (slab slots and handler state are reused), and device models that park
// completions (package flash) keep them in the same plain form (Stored).
//
// Simulated time is an int64 count of nanoseconds. The finest clock in the
// modelled system is the 1 GHz board-level accelerator (1 ns per cycle), so
// nanosecond resolution is exact for every modelled latency.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"unsafe"
)

// Time is a simulated timestamp or duration in nanoseconds.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts a simulated time to float seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Handler receives typed events at their scheduled time. Implementations
// dispatch on Event.Kind; kind values are private to each Handler, so
// independent subsystems (the accelerator engine, the SSD) never collide.
// The dynamic type of a Handler must be comparable (package doc).
type Handler interface {
	HandleEvent(ev Event)
}

// Event is a typed event record: a target, a kind tag the target dispatches
// on, and a small integer payload whose meaning the (target, kind) pair
// defines. Events are plain values — scheduling one never allocates.
//
// The zero Event (nil Target) is the "no completion" sentinel accepted by
// APIs with optional completions; Schedule rejects it.
type Event struct {
	Target Handler
	C      int64
	A, B   int32
	Kind   uint16
}

// None reports whether the event is the zero "no completion" sentinel. It
// takes a pointer so that testing a completion reads its target alone: an
// Event has too many fields for the compiler to keep in registers, and a
// value receiver would copy all 40 bytes through the stack.
func (ev *Event) None() bool { return ev.Target == nil }

// Timing-wheel geometry: a near wheel of one bucket per nanosecond of the
// window that holds now, a far wheel of one bucket per window for the next
// farSize-1 windows, and a slab of fixed chunks. The ~1 ms horizon covers
// every steady-state device latency (sense, transfer, accelerator compute)
// including completions booked behind deep queue backlogs: at bench scale
// at most one event per run lies beyond it. Most deltas are shorter than
// one window (89% on TT-S, 71% on FS-S node2vec walks).
const (
	nearBits  = 12
	nearSize  = 1 << nearBits // nanoseconds per window, buckets in the near wheel
	nearMask  = nearSize - 1
	nearWords = nearSize / 64 // near occupancy words; one summary bit each
	farSize   = 256           // far buckets: the current window's and the next 255
	farMask   = farSize - 1
	horizon   = farSize * nearSize // 2^20 ns from the window start; the heap takes the rest
	chunkBits = 12
	chunkSize = 1 << chunkBits // slab entries per chunk (256 KiB)
	chunkMask = chunkSize - 1
)

// slot is one wheel bucket: a FIFO list threaded through the slab by
// slabEntry.next. Refs are stored +1 so the zero value means "empty" and a
// zero wheel needs no initialization pass.
type slot struct{ head, tail int32 }

// slabEntry is one pending event in plain form — its time, payload, kind
// and the index of its target in the handler table — plus its list link
// (the next entry in its bucket, or in the free list once released). The
// struct is 32 bytes and holds no pointer, so two entries share a cache
// line and a released entry pins nothing.
type slabEntry struct {
	at   Time
	c    int64
	a, b int32
	next int32 // ref+1 of the next entry in the same list, 0 = end
	kind uint16
	h    uint16 // the target's index in Engine.handlers
}

// node is one overflow-heap entry: the (at, seq) ordering key plus a
// reference into the event slab.
type node struct {
	at  Time
	seq uint64
	ref int32
}

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	near    [nearSize]slot    // one bucket per ns of the window [win, win+nearSize)
	nearOcc [nearWords]uint64 // near bucket occupancy
	nearSum uint64            // one bit per non-zero nearOcc word
	far     [farSize]slot     // one bucket per window, indexed by window number mod farSize
	farOcc  [farSize / 64]uint64
	win     Time // start of the window holding now, a multiple of nearSize
	nearN   int  // events in the near wheel
	farN    int  // events in the far wheel

	overflow []node // 4-ary min-heap of events at or beyond win+horizon

	chunks []*[chunkSize]slabEntry // the slab; a ref r lives in chunk r>>chunkBits
	slabN  int32                   // slab entries handed out so far
	free   int32                   // ref+1 of the first free entry, 0 = none

	now       Time
	seq       uint64
	processed uint64

	// handlers is the handler table: a pending event names its target by
	// its index here (Register).
	handlers []Handler

	// The between-events observer (SetCheckpoint): checkFn runs when
	// processed reaches checkDue, strictly between events, and checkDue
	// then advances by checkEvery; returning false halts the drain loop.
	// checkDue is always a multiple of checkEvery, or 0 with no hook, a
	// count processed never equals after a Step. The hook never touches
	// the clock or the schedule, so an uncanceled run's timeline is
	// bit-identical with or without one installed.
	checkEvery uint64
	checkDue   uint64
	checkFn    func() bool
	halted     bool

	// Applier hook (SetApplier): consulted before every event executes,
	// with that event's timestamp, strictly between events. Unlike the
	// observer it may mutate model state outside the engine (graph
	// indexes, filters) — that is its purpose — but it must never touch the
	// engine itself. Used to apply timestamped graph mutations exactly
	// before the first event at or after each mutation's time.
	applyFn func(next Time)
}

// New returns a fresh Engine at time zero.
func New() *Engine { return &Engine{} }

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed reports how many events have been executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending reports how many events are scheduled but not yet executed.
func (e *Engine) Pending() int { return e.nearN + e.farN + len(e.overflow) }

// Schedule enqueues a typed event at absolute time t. Scheduling in the past
// panics: it always indicates a modelling bug. The nil-target sentinel also
// panics — callers must filter optional completions themselves.
func (e *Engine) Schedule(t Time, ev Event) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if ev.Target == nil {
		panic("sim: scheduling event with nil target")
	}
	e.seq++
	h := e.handlerIndex(ev.Target)
	ref, ent := e.newEntry()
	ent.at, ent.c, ent.a, ent.b, ent.kind, ent.h = t, ev.C, ev.A, ev.B, ev.Kind, h
	e.file(e.seq, ref, t)
}

// file files the slab entry ref, an event at time at, in the near wheel
// when at is inside the current window, in the far wheel when it is inside
// the horizon, or else in the overflow heap, which alone keeps seq.
// Callers must pass strictly increasing seq values for each timestamp
// (ImportState sorts for exactly this reason) and a time at or after the
// window start. The offset is taken unsigned, so no timestamp overflows
// it.
func (e *Engine) file(seq uint64, ref int32, at Time) {
	switch d := uint64(at) - uint64(e.win); {
	case d < nearSize:
		e.nearAppend(ref, at)
	case d < horizon:
		e.farAppend(ref, at)
	default:
		e.heapPush(node{at: at, seq: seq, ref: ref})
	}
}

// link appends ref to the FIFO list of bucket s and reports whether the
// bucket was empty.
func (e *Engine) link(s *slot, ref int32) bool {
	empty := s.head == 0
	if empty {
		s.head = ref + 1
	} else {
		e.entry(s.tail - 1).next = ref + 1
	}
	s.tail = ref + 1
	return empty
}

// nearAppend files a slab reference at the tail of its near bucket.
func (e *Engine) nearAppend(ref int32, t Time) {
	i := int(t & nearMask)
	if e.link(&e.near[i], ref) {
		e.nearOcc[i>>6] |= 1 << (i & 63)
		e.nearSum |= 1 << (i >> 6)
	}
	e.nearN++
}

// farAppend files a slab reference at the tail of its window's far bucket.
func (e *Engine) farAppend(ref int32, t Time) {
	i := int(t>>nearBits) & farMask
	if e.link(&e.far[i], ref) {
		e.farOcc[i>>6] |= 1 << (i & 63)
	}
	e.farN++
}

// entry resolves a slab reference.
func (e *Engine) entry(ref int32) *slabEntry {
	return &e.chunks[ref>>chunkBits][ref&chunkMask]
}

// newEntry takes a slab entry for a new event, the most recently freed one
// if any, and returns its reference and the entry with its link cleared.
// The caller writes the event's fields in place: building a slabEntry
// value and copying it in would pass it through the stack. A new chunk is
// allocated only when every entry of the last one is in use; chunks never
// move or shrink.
func (e *Engine) newEntry() (int32, *slabEntry) {
	ref := e.free - 1
	if ref >= 0 {
		ent := e.entry(ref)
		e.free = ent.next
		ent.next = 0
		return ref, ent
	}
	ref = e.slabN
	if int(ref>>chunkBits) == len(e.chunks) {
		e.chunks = append(e.chunks, new([chunkSize]slabEntry))
	}
	e.slabN++
	return ref, e.entry(ref)
}

// --- The handler table. ---

// Register adds h to the engine's handler table unless it is there already
// and returns its index, the Target by which stored and exported events
// name it. Schedule registers a new target itself; registering ahead of
// time fixes the indices, so that every run of a model names its handlers
// alike in the images it exports. Register panics on a nil h and on one
// whose dynamic type is not comparable.
func (e *Engine) Register(h Handler) int32 {
	if h == nil {
		panic("sim: registering a nil handler")
	}
	if t := reflect.TypeOf(h); !t.Comparable() {
		panic(fmt.Sprintf("sim: handler type %v is not comparable", t))
	}
	for i, g := range e.handlers {
		if g == h {
			return int32(i)
		}
	}
	if len(e.handlers) > math.MaxUint16 {
		panic("sim: more than 65,536 handlers")
	}
	e.handlers = append(e.handlers, h)
	return int32(len(e.handlers) - 1)
}

// Handlers reports how many handlers the table holds; a stored or exported
// event's Target is below it.
func (e *Engine) Handlers() int { return len(e.handlers) }

// Handler returns the handler at index id of the table.
func (e *Engine) Handler(id int32) Handler { return e.handlers[id] }

// handlerIndex finds h in the handler table, registering it on first use.
// It compares the interface's two words — the type and the data pointer —
// one at a time rather than with ==, which calls into the runtime for
// every entry it passes, and reads h's words where they lie rather than
// copying them out as one 16-byte value, a load the two 8-byte stores
// that spilled h cannot forward to. Equal words are the same handler. A
// non-pointer handler boxed afresh by each conversion misses here, and
// Register finds it by ==.
func (e *Engine) handlerIndex(h Handler) uint16 {
	w := (*[2]unsafe.Pointer)(unsafe.Pointer(&h))
	for i := range e.handlers {
		if hw := (*[2]unsafe.Pointer)(unsafe.Pointer(&e.handlers[i])); hw[0] == w[0] && hw[1] == w[1] {
			return uint16(i)
		}
	}
	return uint16(e.Register(h))
}

// Stored is an event in the plain form the kernel keeps: Target is the
// index of the event's handler in the engine's handler table, or -1 for
// the zero "no completion" event. It holds no pointer, so a device model
// can pool completions the garbage collector never scans, and an image can
// carry them as they are.
type Stored struct {
	C      int64
	A, B   int32
	Target int32
	Kind   uint16
}

// None reports whether the stored event is the "no completion" sentinel.
// Like Event.None it takes a pointer, so the test copies nothing.
func (s *Stored) None() bool { return s.Target < 0 }

// Store writes ev in plain form to dst, registering its target on first
// use. It writes in place because a Stored returned by value would reach
// its destination through the stack.
func (e *Engine) Store(dst *Stored, ev Event) {
	if ev.None() {
		*dst = Stored{Target: -1}
		return
	}
	dst.C, dst.A, dst.B, dst.Kind = ev.C, ev.A, ev.B, ev.Kind
	dst.Target = int32(e.handlerIndex(ev.Target))
}

// Fire delivers a stored event to its handler now, inline, as the part of
// the current event that completes it; it must not be None.
func (e *Engine) Fire(s Stored) {
	h := e.handlers[s.Target]
	h.HandleEvent(Event{Target: h, C: s.C, A: s.A, B: s.B, Kind: s.Kind})
}

// ScheduleAfter enqueues a typed event d nanoseconds from now.
func (e *Engine) ScheduleAfter(d Time, ev Event) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.Schedule(e.now+d, ev)
}

// SetCheckpoint installs the between-events observer: during Run/RunUntil,
// fn is invoked each time the count of processed events reaches a multiple
// of every, always at an event boundary (never mid-event). Returning false
// halts the drain loop; the engine's clock, heap, and pending events are
// left exactly as they were, so a halted run can be resumed by calling Run
// again or abandoned with a consistent partial state. The multiples are
// absolute — they count the events before the install, and those an
// imported state brings — and a halted Run's successor goes on to the next
// one. Events run by Step alone consult no hook, so install it after
// stepping by hand. Passing fn == nil clears the hook.
//
// The hook must not schedule events or otherwise mutate the engine; it is a
// pure observer used for cancellation, progress reports, snapshots and
// export. Because it only ever runs between events, installing a hook
// cannot perturb the simulated timeline of a run that is not halted.
func (e *Engine) SetCheckpoint(every uint64, fn func() bool) {
	if fn != nil && every == 0 {
		panic("sim: checkpoint interval must be positive")
	}
	e.checkEvery = every
	e.checkFn = fn
	e.armCheckpoint()
}

// ClearCheckpoint removes any installed checkpoint hook.
func (e *Engine) ClearCheckpoint() { e.SetCheckpoint(0, nil) }

// armCheckpoint sets the due count to the first multiple of checkEvery
// above the events processed so far, or to 0 without a hook.
func (e *Engine) armCheckpoint() {
	e.checkDue = 0
	if e.checkFn != nil {
		e.checkDue = (e.processed/e.checkEvery + 1) * e.checkEvery
	}
}

// SetApplier installs a pre-event hook: during Run/RunUntil, fn is invoked
// immediately before each event executes, with that event's timestamp —
// never mid-event. This gives external timestamped state changes (graph
// mutations) an exact visibility rule: a change stamped T is applied before
// the first event at time >= T and is invisible to every event before it.
// Passing fn == nil clears the hook.
//
// fn may mutate model state outside the engine, but it must not schedule
// events, advance the clock, or otherwise touch the engine: the drain order
// is decided before fn runs, so a hook that never changes external state is
// indistinguishable from no hook at all — timelines stay bit-identical.
func (e *Engine) SetApplier(fn func(next Time)) { e.applyFn = fn }

// ClearApplier removes any installed applier hook.
func (e *Engine) ClearApplier() { e.applyFn = nil }

// Halted reports whether the last Run/RunUntil was stopped by the
// checkpoint hook rather than by draining the schedule or reaching the
// deadline.
func (e *Engine) Halted() bool { return e.halted }

// checkpoint runs the hook at a due boundary and advances the due count;
// it reports true when the drain loop must halt. The drain loops call it
// only when processed has reached checkDue.
func (e *Engine) checkpoint() bool {
	e.checkDue += e.checkEvery
	if e.checkFn() {
		return false
	}
	e.halted = true
	return true
}

// Step executes the single earliest pending event. It reports false when no
// events remain.
func (e *Engine) Step() bool {
	if e.Pending() == 0 {
		return false
	}
	ent := e.pop()
	e.processed++
	// Dispatch straight from the released entry: the call's arguments are
	// read before the handler can reuse it.
	h := e.handlers[ent.h]
	h.HandleEvent(Event{Target: h, C: ent.c, A: ent.a, B: ent.b, Kind: ent.kind})
	return true
}

// Run executes events until none remain (or the checkpoint hook halts the
// drain), returning the final time.
func (e *Engine) Run() Time {
	e.halted = false
	for {
		if e.applyFn != nil && e.Pending() > 0 {
			e.applyFn(e.nextTime())
		}
		if !e.Step() {
			break
		}
		if e.processed == e.checkDue && e.checkpoint() {
			break
		}
	}
	return e.now
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to deadline if it is still earlier. Events scheduled beyond the
// deadline remain pending. A checkpoint halt leaves the clock where the
// last event put it (the deadline advance is skipped).
func (e *Engine) RunUntil(deadline Time) Time {
	e.halted = false
	for e.Pending() > 0 {
		next := e.nextTime()
		if next > deadline {
			break
		}
		if e.applyFn != nil {
			e.applyFn(next)
		}
		e.Step()
		if e.processed == e.checkDue && e.checkpoint() {
			return e.now
		}
	}
	if e.now < deadline {
		e.now = deadline
		// Every pending event is later than the deadline, so the near
		// wheel and the far buckets of the windows passed are empty.
		if uint64(deadline)-uint64(e.win) >= nearSize {
			e.moveWindow(deadline &^ nearMask)
		}
	}
	return e.now
}

// nextTime reports the timestamp of the earliest pending event without
// moving the window. It must only be called with events pending.
func (e *Engine) nextTime() Time {
	if e.nearN > 0 {
		return e.win + Time(e.nearFirst())
	}
	if e.farN > 0 {
		i := (int(e.win>>nearBits) + e.farFirst()) & farMask
		ent := e.entry(e.far[i].head - 1)
		t := ent.at
		for ent.next != 0 {
			ent = e.entry(ent.next - 1)
			t = min(t, ent.at)
		}
		return t
	}
	return e.overflow[0].at
}

// pop removes the earliest pending event, advances the clock to its
// timestamp and releases its entry onto the free list, where the entry
// keeps its event until the next insert reuses it. With the near wheel
// empty it first moves the window to the first occupied far bucket's
// window, or else to the heap minimum's.
func (e *Engine) pop() *slabEntry {
	if e.nearN == 0 {
		if e.farN > 0 {
			e.moveWindow(e.win + Time(e.farFirst())*nearSize)
		} else {
			e.moveWindow(e.overflow[0].at &^ nearMask)
		}
	}
	i := e.nearFirst()
	s := &e.near[i]
	ref := s.head - 1
	ent := e.entry(ref)
	s.head = ent.next
	if s.head == 0 {
		s.tail = 0
		w := i >> 6
		if e.nearOcc[w] &^= 1 << (i & 63); e.nearOcc[w] == 0 {
			e.nearSum &^= 1 << w
		}
	}
	e.nearN--
	e.now = e.win + Time(i)
	ent.next = e.free
	e.free = ref + 1
	return ent
}

// nearFirst reports the earliest occupied near bucket. Every near entry is
// at or after now, inside the aligned window, so the lowest set bit is the
// earliest; the near wheel must be non-empty.
func (e *Engine) nearFirst() int {
	w := bits.TrailingZeros64(e.nearSum)
	return w<<6 | bits.TrailingZeros64(e.nearOcc[w])
}

// farFirst reports how many windows past the current one the earliest
// occupied far bucket lies, 1 to farSize-1; the far wheel must be
// non-empty. The current window's own far bucket is always empty (its
// events go to the near wheel), so a circular scan from the bucket after
// it meets the windows in time order.
func (e *Engine) farFirst() int {
	cur := int(e.win>>nearBits) & farMask
	start := (cur + 1) & farMask
	w := start >> 6
	if m := e.farOcc[w] >> (start & 63); m != 0 {
		return 1 + bits.TrailingZeros64(m)
	}
	for k := 1; k <= len(e.farOcc); k++ {
		wk := (w + k) % len(e.farOcc)
		if m := e.farOcc[wk]; m != 0 {
			i := wk<<6 | bits.TrailingZeros64(m)
			return (i - cur) & farMask
		}
	}
	panic("sim: farFirst on an empty far wheel")
}

// moveWindow makes the window starting at start current. The near wheel
// and the far buckets of the windows it passes must be empty. It moves the
// heap entries whose window entered the far horizon into their far
// buckets, in (at, seq) order, then spills the new window's far bucket
// into the near wheel in list order — both before any handler can insert,
// so each bucket list stays in seq order per timestamp (package doc).
func (e *Engine) moveWindow(start Time) {
	e.win = start
	for len(e.overflow) > 0 && uint64(e.overflow[0].at)-uint64(start) < horizon {
		nd := e.heapPop()
		e.farAppend(nd.ref, nd.at)
	}
	i := int(start>>nearBits) & farMask
	ref := e.far[i].head
	if ref == 0 {
		return
	}
	e.far[i] = slot{}
	e.farOcc[i>>6] &^= 1 << (i & 63)
	for ref != 0 {
		ent := e.entry(ref - 1)
		next := ent.next
		ent.next = 0
		e.farN--
		e.nearAppend(ref-1, ent.at)
		ref = next
	}
}

// --- 4-ary min-heap on (at, seq) for beyond-horizon events. ---
//
// A 4-ary layout halves the tree depth of a binary heap, and the nodes
// are compared inline on two integer fields, so a push/pop touches fewer
// cache lines and performs no interface calls. The (at, seq) key is a
// strict total order — seq is unique per event — so the drain sequence is
// identical to any other min-heap over the same schedule.

// less orders heap nodes by (at, seq).
func less(a, b *node) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush appends the node and sifts it up, moving the displaced ancestors
// down into the hole rather than swapping (one write per level instead of
// two). The backing array is retained across drains, so a steady-state
// schedule allocates only on high-water growth.
func (e *Engine) heapPush(nd node) {
	h := append(e.overflow, nd)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !less(&nd, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = nd
	e.overflow = h
}

// heapPop removes and returns the minimum node.
func (e *Engine) heapPop() node {
	h := e.overflow
	top := h[0]
	n := len(h) - 1
	moved := h[n]
	h = h[:n]
	e.overflow = h
	if n > 0 {
		// Sift the displaced last node down from the root hole.
		i := 0
		for {
			first := 4*i + 1
			if first >= n {
				break
			}
			best := first
			last := first + 4
			if last > n {
				last = n
			}
			for c := first + 1; c < last; c++ {
				if less(&h[c], &h[best]) {
					best = c
				}
			}
			if !less(&h[best], &moved) {
				break
			}
			h[i] = h[best]
			i = best
		}
		h[i] = moved
	}
	return top
}
