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
// is therefore a timing wheel — one FIFO bucket per nanosecond over a
// 131 us horizon, a two-level bitmap to find the next occupied bucket in a
// few word scans, and a small 4-ary overflow heap for the rare event beyond
// the horizon (erase latencies, fault timers). Inserts and pops are O(1)
// with ~3 cache-line touches; the drain order is the exact (time, sequence)
// total order the heap produced, so timelines are bit-identical.
//
// Every event is a typed record (Schedule / ScheduleAfter): a Handler
// target, a kind tag, and a small integer payload, dispatched through the
// target's HandleEvent. Events are plain values, so scheduling allocates
// nothing in steady state (slab slots and handler state are reused) and a
// pending schedule is plain data that ExportState can serialize at any
// event boundary.
//
// Simulated time is an int64 count of nanoseconds. The finest clock in the
// modelled system is the 1 GHz board-level accelerator (1 ns per cycle), so
// nanosecond resolution is exact for every modelled latency.
package sim

import (
	"fmt"
	"math/bits"
	"slices"
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

// None reports whether the event is the zero "no completion" sentinel.
func (ev Event) None() bool { return ev.Target == nil }

// Timing-wheel geometry: one bucket per nanosecond over a ~1 ms horizon.
// The horizon covers every steady-state device latency (sense, transfer,
// accelerator compute) including completions booked behind deep queue
// backlogs — measured at figure scale, >99.9% of scheduled deltas fall
// under 1 ms, so essentially only erase-class operations and fault timers
// overflow to the heap, and each overflowed event is migrated into the
// wheel at most once. The wheel array is 8 MiB but allocated lazily and
// touched sparsely: resident pages track the span of in-flight deltas, not
// the horizon.
const (
	wheelBits = 20
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
	l1Words   = wheelSize / 64 // one occupancy bit per bucket
	l2Words   = l1Words / 64   // one summary bit per l1 word
)

// slot is one wheel bucket: a FIFO list threaded through the slab by
// slabEntry.next. Refs are stored +1 so the zero value means "empty" and a
// freshly made wheel needs no initialization pass.
type slot struct{ head, tail int32 }

// slabEntry is one pending event plus its scheduling key and FIFO link.
// The struct is 64 bytes, so a pop touches exactly one cache line of slab.
type slabEntry struct {
	ev   Event
	at   Time
	seq  uint64
	next int32 // ref+1 of the next entry in the same bucket, 0 = end
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
	wheel     []slot   // lazily allocated bucket array, wheelSize long
	bmL1      []uint64 // bucket-occupancy bitmap
	bmL2      []uint64 // summary bitmap over bmL1 words
	wheelN    int      // events currently in the wheel
	overflow  []node   // 4-ary min-heap of events at or beyond now+wheelSize
	slab      []slabEntry
	freeSlab  []int32 // recycled slab slots
	now       Time
	seq       uint64
	processed uint64

	// Cooperative checkpoint hook (SetCheckpoint): checkFn is consulted
	// every checkEvery processed events, strictly between events; returning
	// false halts the drain loop. The hook never touches the clock or the
	// heap, so an uncanceled run's timeline is bit-identical with or without
	// a hook installed.
	checkEvery uint64
	checkFn    func() bool
	halted     bool

	// Emission hook (SetEmitter): like the checkpoint hook, a pure observer
	// consulted every emitEvery processed events strictly between events,
	// but it can never halt the drain. Used to flush batched observations
	// (e.g. completed-walk records) out of the hot loop on a cadence
	// independent of the checkpoint interval.
	emitEvery uint64
	emitFn    func()

	// Applier hook (SetApplier): consulted before every event executes,
	// with that event's timestamp, strictly between events. Unlike the
	// observer hooks it may mutate model state outside the engine (graph
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
func (e *Engine) Pending() int { return e.wheelN + len(e.overflow) }

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
	e.insert(t, e.seq, ev)
}

// insert parks the event in the slab and files its reference under the
// wheel bucket for t, or in the overflow heap when t is beyond the horizon.
// Callers must pass strictly increasing seq values for correct FIFO order
// within a bucket (ImportState sorts for exactly this reason).
func (e *Engine) insert(t Time, seq uint64, ev Event) {
	if e.wheel == nil {
		e.wheel = make([]slot, wheelSize)
		e.bmL1 = make([]uint64, l1Words)
		e.bmL2 = make([]uint64, l2Words)
	}
	ref := e.putEvent(t, seq, ev)
	if t < e.now+wheelSize {
		e.bucketAppend(ref, t)
		return
	}
	e.heapPush(node{at: t, seq: seq, ref: ref})
}

// bucketAppend files a slab reference at the tail of its wheel bucket.
// Within a bucket the list is FIFO, which is (at, seq) order: every entry
// in a bucket shares one timestamp (two live timestamps wheelSize apart
// cannot both be inside the horizon), and appends arrive in seq order.
func (e *Engine) bucketAppend(ref int32, t Time) {
	idx := int(t & wheelMask)
	s := &e.wheel[idx]
	if s.head == 0 {
		s.head = ref + 1
		e.bmL1[idx>>6] |= 1 << (idx & 63)
		e.bmL2[idx>>12] |= 1 << ((idx >> 6) & 63)
	} else {
		e.slab[s.tail-1].next = ref + 1
	}
	s.tail = ref + 1
	e.wheelN++
}

// putEvent parks an event in a pooled slab slot and returns its index.
func (e *Engine) putEvent(t Time, seq uint64, ev Event) int32 {
	if n := len(e.freeSlab); n > 0 {
		ref := e.freeSlab[n-1]
		e.freeSlab = e.freeSlab[:n-1]
		e.slab[ref] = slabEntry{ev: ev, at: t, seq: seq}
		return ref
	}
	if len(e.slab) == cap(e.slab) {
		// Grow by doubling. A launch burst parks one event per walk at
		// once, and append's 1.25x steps for large slices would allocate
		// about five times the final slab on the way there.
		e.slab = slices.Grow(e.slab, len(e.slab))
	}
	e.slab = append(e.slab, slabEntry{ev: ev, at: t, seq: seq})
	return int32(len(e.slab) - 1)
}

// takeEvent releases a slab slot, returning its event. The slot is zeroed
// so a popped event does not pin its Handler for GC.
func (e *Engine) takeEvent(ref int32) Event {
	ev := e.slab[ref].ev
	e.slab[ref] = slabEntry{}
	e.freeSlab = append(e.freeSlab, ref)
	return ev
}

// ScheduleAfter enqueues a typed event d nanoseconds from now.
func (e *Engine) ScheduleAfter(d Time, ev Event) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.Schedule(e.now+d, ev)
}

// SetCheckpoint installs a cooperative stop hook: fn is invoked every
// `every` processed events during Run/RunUntil, always at an event boundary
// (never mid-event). Returning false halts the drain loop; the engine's
// clock, heap, and pending events are left exactly as they were, so a
// halted run can be resumed by calling Run again or abandoned with a
// consistent partial state. Passing fn == nil clears the hook.
//
// The hook must not schedule events or otherwise mutate the engine; it is a
// pure observer used for cancellation and progress snapshots. Because it
// only ever runs between events, installing a hook cannot perturb the
// simulated timeline of a run that is not halted.
func (e *Engine) SetCheckpoint(every uint64, fn func() bool) {
	if fn != nil && every == 0 {
		panic("sim: checkpoint interval must be positive")
	}
	e.checkEvery = every
	e.checkFn = fn
}

// ClearCheckpoint removes any installed checkpoint hook.
func (e *Engine) ClearCheckpoint() { e.checkFn = nil; e.checkEvery = 0 }

// SetEmitter installs a cooperative emission hook: fn is invoked every
// `every` processed events during Run/RunUntil, always at an event boundary
// (never mid-event), immediately before the checkpoint hook when both are
// due. Unlike the checkpoint hook it has no return value and can never halt
// the drain. Passing fn == nil clears the hook.
//
// Like the checkpoint hook, the emitter must not schedule events or
// otherwise mutate the engine; it is a pure observer, so installing one
// cannot perturb the simulated timeline. It exists so periodic export work
// (draining completed-walk buffers to a consumer) gets its own cadence
// instead of piggybacking on the checkpoint interval.
func (e *Engine) SetEmitter(every uint64, fn func()) {
	if fn != nil && every == 0 {
		panic("sim: emitter interval must be positive")
	}
	e.emitEvery = every
	e.emitFn = fn
}

// ClearEmitter removes any installed emission hook.
func (e *Engine) ClearEmitter() { e.emitFn = nil; e.emitEvery = 0 }

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

// emit consults the emission hook if one is due.
func (e *Engine) emit() {
	if e.emitFn != nil && e.processed%e.emitEvery == 0 {
		e.emitFn()
	}
}

// Halted reports whether the last Run/RunUntil was stopped by the
// checkpoint hook rather than by draining the schedule or reaching the
// deadline.
func (e *Engine) Halted() bool { return e.halted }

// checkpoint consults the hook if one is due; it reports true when the
// drain loop must halt.
func (e *Engine) checkpoint() bool {
	if e.checkFn == nil || e.processed%e.checkEvery != 0 {
		return false
	}
	if e.checkFn() {
		return false
	}
	e.halted = true
	return true
}

// Step executes the single earliest pending event. It reports false when no
// events remain.
func (e *Engine) Step() bool {
	if e.wheelN == 0 && len(e.overflow) == 0 {
		return false
	}
	ev := e.pop()
	e.processed++
	ev.Target.HandleEvent(ev)
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
		e.emit()
		if e.checkpoint() {
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
		e.emit()
		if e.checkpoint() {
			return e.now
		}
	}
	if e.now < deadline {
		e.now = deadline
		e.migrate()
	}
	return e.now
}

// nextTime reports the timestamp of the earliest pending event. It must
// only be called with events pending. When the wheel is non-empty its
// earliest bucket beats the overflow heap by construction (everything in
// the wheel is inside the horizon, everything overflowed is beyond it).
func (e *Engine) nextTime() Time {
	if e.wheelN > 0 {
		s := &e.wheel[e.nextBucket()]
		return e.slab[s.head-1].at
	}
	return e.overflow[0].at
}

// --- Timing wheel + overflow heap. ---
//
// Correctness argument for the exact (at, seq) drain order:
//
//   - Every entry inside a bucket shares one timestamp: two live
//     timestamps that map to the same bucket differ by a multiple of
//     wheelSize, and all wheel entries sit inside the [now, now+wheelSize)
//     horizon, so they cannot coexist.
//   - Within a bucket the FIFO list is seq order. Direct inserts append in
//     increasing seq. A migrated (previously overflowed) entry always
//     carries a smaller seq than any direct insert to the same bucket: a
//     direct insert at time T requires T < now+wheelSize, the overflowed
//     entry was scheduled while T >= now+wheelSize, and now only advances —
//     so the overflow insert happened strictly earlier. Migration runs the
//     moment now advances, before any handler can insert, so migrated
//     entries always land at the head of an empty bucket, in heap (seq)
//     order.
//   - Scanning buckets circularly from now&wheelMask visits timestamps in
//     increasing order, and the overflow heap's minimum is always beyond
//     every wheel entry.

// pop removes the earliest pending event, advances the clock to its
// timestamp, and migrates any overflowed events that the advance pulled
// inside the horizon.
func (e *Engine) pop() Event {
	if e.wheelN > 0 {
		idx := e.nextBucket()
		s := &e.wheel[idx]
		ref := s.head - 1
		ent := &e.slab[ref]
		s.head = ent.next
		if s.head == 0 {
			s.tail = 0
			w := idx >> 6
			e.bmL1[w] &^= 1 << (idx & 63)
			if e.bmL1[w] == 0 {
				e.bmL2[w>>6] &^= 1 << (w & 63)
			}
		}
		e.wheelN--
		if ent.at != e.now {
			e.now = ent.at
			e.migrate()
		}
		return e.takeEvent(ref)
	}
	// Wheel empty: the schedule has only far-future events. Pop the
	// overflow minimum directly and pull its same-horizon peers in.
	nd := e.heapPop()
	e.now = nd.at
	e.migrate()
	return e.takeEvent(nd.ref)
}

// migrate moves overflowed events that the latest clock advance brought
// inside the horizon into their wheel buckets. The heap pops in (at, seq)
// order, so per-bucket arrival order stays seq order.
func (e *Engine) migrate() {
	horizon := e.now + wheelSize
	for len(e.overflow) > 0 && e.overflow[0].at < horizon {
		nd := e.heapPop()
		e.bucketAppend(nd.ref, nd.at)
	}
}

// nextBucket reports the index of the earliest occupied bucket, scanning
// the two-level occupancy bitmap circularly from the bucket of now. It must
// only be called when the wheel is non-empty.
func (e *Engine) nextBucket() int {
	start := int(e.now & wheelMask)
	// Bits at or after start inside start's own l1 word.
	w := start >> 6
	if m := e.bmL1[w] &^ (1<<(start&63) - 1); m != 0 {
		return w<<6 | bits.TrailingZeros64(m)
	}
	// L1 words strictly after w inside start's l2 word.
	w2 := w >> 6
	if m := e.bmL2[w2] &^ (1<<((w&63)+1) - 1); m != 0 {
		lw := w2<<6 | bits.TrailingZeros64(m)
		return lw<<6 | bits.TrailingZeros64(e.bmL1[lw])
	}
	// Remaining l2 words, wrapping. The final iteration revisits w2: any
	// bit still set there is before start, i.e. wrapped, and therefore
	// later in time than every bucket at or after start (all checked
	// empty above), so taking its lowest bucket is correct.
	for i := 1; i <= l2Words; i++ {
		w2n := (w2 + i) & (l2Words - 1)
		if m := e.bmL2[w2n]; m != 0 {
			lw := w2n<<6 | bits.TrailingZeros64(m)
			return lw<<6 | bits.TrailingZeros64(e.bmL1[lw])
		}
	}
	panic("sim: nextBucket on empty wheel")
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
