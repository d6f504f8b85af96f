package sim

import (
	"testing"

	"flashwalker/internal/rng"
)

// Property-based invariant tests: for randomized seeds and fault-like
// perturbation rates, the event kernel must keep its contract — simulated
// time is monotone across the heap, every scheduled completion fires exactly
// once, and queues drain back to idle. These are the kernel-level guarantees
// the fault-injection layer builds on (a retry is just one more scheduled
// event; if any of these broke under dense schedules, faulty runs could
// lose or duplicate walks).

// propertyIters scales the randomized sweep; short mode keeps tier-1 fast.
func propertyIters(t *testing.T) int {
	if testing.Short() {
		return 3
	}
	return 12
}

// TestPropertyTimeMonotoneAndExactlyOnce schedules a random burst of events
// — including ties, zero delays, and chained reschedules standing in for
// retries — and asserts the observed clock never moves backwards and every
// event fires exactly once.
func TestPropertyTimeMonotoneAndExactlyOnce(t *testing.T) {
	for iter := 0; iter < propertyIters(t); iter++ {
		r := rng.New(uint64(1000 + iter))
		eng := New()
		faultRate := float64(iter) / 20 // 0 .. 0.55

		n := 50 + int(r.Uint64n(200))
		fired := make([]int, n)
		last := Time(-1)
		// Event A is the completion's index, B its retry count.
		var handler handlerFunc
		handler = func(ev Event) {
			if eng.Now() < last {
				t.Fatalf("iter %d: clock moved backwards: %v after %v", iter, eng.Now(), last)
			}
			last = eng.Now()
			// A "transient fault": reschedule the same completion with
			// backoff, a bounded number of times.
			if ev.B < 3 && r.Bool(faultRate) {
				ev.B++
				eng.ScheduleAfter(Time(ev.B)*10*Microsecond, ev)
				return
			}
			fired[ev.A]++
		}
		for i := 0; i < n; i++ {
			delay := Time(r.Uint64n(1000)) * Microsecond
			eng.ScheduleAfter(delay, Event{Target: handler, A: int32(i)})
		}
		eng.Run()
		if eng.Pending() != 0 {
			t.Fatalf("iter %d: %d events left after Run", iter, eng.Pending())
		}
		for i, f := range fired {
			if f != 1 {
				t.Fatalf("iter %d: event %d fired %d times, want exactly once", iter, i, f)
			}
		}
	}
}

// TestPropertyQueuesDrain drives a random set of single-server queues with
// random arrival/service patterns (plus fault-like AcquireAfter backoff
// re-entries) and asserts every submission completes, the queues return to
// idle at drain, and utilization stays in [0, 1].
func TestPropertyQueuesDrain(t *testing.T) {
	for iter := 0; iter < propertyIters(t); iter++ {
		r := rng.New(uint64(5000 + iter))
		eng := New()
		nq := 1 + int(r.Uint64n(4))
		queues := make([]*Queue, nq)
		for i := range queues {
			queues[i] = NewQueue(eng)
		}
		faultRate := float64(iter) / 24

		// Event kinds: an arrival submits work to queue A; a completion of
		// a request with service C on queue A may "fail" and re-enter the
		// same queue after a backoff (the retry pattern the flash layer
		// uses); a retried request's completion is final.
		const (
			arrive = iota
			done
			retried
		)
		submitted, completed := 0, 0
		var h handlerFunc
		h = func(ev Event) {
			q := queues[ev.A]
			switch ev.Kind {
			case arrive:
				submitted++
				service := Time(1+r.Uint64n(50)) * Microsecond
				fin := Event{Target: h, Kind: done, A: ev.A, C: int64(service)}
				if r.Bool(0.5) {
					q.AcquireEvent(service, fin)
				} else {
					q.AcquireAfter(eng.Now()+Time(r.Uint64n(100))*Microsecond, service, fin)
				}
			case done:
				completed++
				if r.Bool(faultRate) {
					backoff := eng.Now() + Time(1+r.Uint64n(20))*Microsecond
					submitted++
					q.AcquireAfter(backoff, Time(ev.C), Event{Target: h, Kind: retried})
				}
			case retried:
				completed++
			}
		}
		n := 30 + int(r.Uint64n(120))
		for i := 0; i < n; i++ {
			qi := r.Uint64n(uint64(nq))
			eng.ScheduleAfter(Time(r.Uint64n(500))*Microsecond, Event{Target: h, Kind: arrive, A: int32(qi)})
		}
		end := eng.Run()
		if completed != submitted {
			t.Fatalf("iter %d: %d of %d submissions completed", iter, completed, submitted)
		}
		for qi, q := range queues {
			if q.BusyUntil() > end {
				t.Fatalf("iter %d: queue %d still busy (%v) after drain at %v",
					iter, qi, q.BusyUntil(), end)
			}
			if u := q.Utilization(); u < 0 || u > 1 {
				t.Fatalf("iter %d: queue %d utilization %v outside [0,1]", iter, qi, u)
			}
			if int(q.Served()) > submitted {
				t.Fatalf("iter %d: queue %d served %d > %d submitted", iter, qi, q.Served(), submitted)
			}
		}
	}
}

// TestPropertyHeapOrderWithTies floods the heap with same-timestamp events
// and asserts FIFO order among ties (the seq tiebreak): determinism under
// fault-injected schedules depends on it.
func TestPropertyHeapOrderWithTies(t *testing.T) {
	for iter := 0; iter < propertyIters(t); iter++ {
		r := rng.New(uint64(9000 + iter))
		eng := New()
		var order []int
		h := handlerFunc(func(ev Event) { order = append(order, int(ev.A)) })
		n := 20 + int(r.Uint64n(80))
		at := make([]Time, n)
		for i := 0; i < n; i++ {
			// Only a handful of distinct timestamps: most events tie.
			at[i] = Time(r.Uint64n(4)) * Microsecond
			eng.Schedule(at[i], Event{Target: h, A: int32(i)})
		}
		eng.Run()
		if len(order) != n {
			t.Fatalf("iter %d: %d of %d events fired", iter, len(order), n)
		}
		seen := make(map[int]bool, n)
		lastIdx := make(map[Time]int)
		for _, id := range order {
			if seen[id] {
				t.Fatalf("iter %d: event %d fired twice", iter, id)
			}
			seen[id] = true
			if prev, ok := lastIdx[at[id]]; ok && prev > id {
				t.Fatalf("iter %d: tie at %v fired out of scheduling order (%d before %d)",
					iter, at[id], prev, id)
			}
			lastIdx[at[id]] = id
		}
	}
}
