package sim

// Queue models a FIFO-serving, single-server resource such as a bus, a DMA
// engine, or a memory port. A request occupies the resource for a caller-
// computed service time; requests issued while the resource is busy queue
// behind it in issue order. This is the standard M/G/1-style abstraction:
// the channel buses, the PCIe link and the mapping-table port are all Queues.
//
// Queue does not keep an explicit waiter list. Because service times are
// known at issue time, it suffices to track the time the server frees up:
// a new request starts at max(now, busyUntil).
type Queue struct {
	eng *Engine

	busyUntil Time
	busyTotal Time // accumulated service time (for utilization)
	served    uint64
	waited    Time // accumulated queueing delay (start - issue)
}

// NewQueue returns a FIFO resource bound to the engine.
func NewQueue(eng *Engine) *Queue { return &Queue{eng: eng} }

// reserve books the resource from readyAt for service nanoseconds and
// returns the completion time.
func (q *Queue) reserve(readyAt, service Time) Time {
	if service < 0 {
		panic("sim: negative service time")
	}
	start := readyAt
	if q.busyUntil > start {
		q.waited += q.busyUntil - start
		start = q.busyUntil
	}
	end := start + service
	q.busyUntil = end
	q.busyTotal += service
	q.served++
	return end
}

// AcquireEvent reserves the resource for service nanoseconds, starting as
// soon as all previously issued requests have drained. It returns the
// completion time and, unless done is the zero event, schedules done at
// that time. It allocates nothing. (The Event suffix stays because the
// benchmark harness calls it by this name.)
func (q *Queue) AcquireEvent(service Time, done Event) Time {
	return q.AcquireAfter(q.eng.Now(), service, done)
}

// AcquireAfter is AcquireEvent for a request issued at absolute time
// readyAt >= now (e.g. a transfer that can only start once data is staged).
func (q *Queue) AcquireAfter(readyAt, service Time, done Event) Time {
	if readyAt < q.eng.Now() {
		readyAt = q.eng.Now()
	}
	end := q.reserve(readyAt, service)
	if !done.None() {
		q.eng.Schedule(end, done)
	}
	return end
}

// BusyUntil reports when the resource next becomes free.
func (q *Queue) BusyUntil() Time { return q.busyUntil }

// BusyTotal reports accumulated service time.
func (q *Queue) BusyTotal() Time { return q.busyTotal }

// Served reports the number of completed (or scheduled) requests.
func (q *Queue) Served() uint64 { return q.served }

// Waited reports total queueing delay across all requests.
func (q *Queue) Waited() Time { return q.waited }

// Utilization reports busyTotal / elapsed, clamped to [0,1] for elapsed > 0.
func (q *Queue) Utilization() float64 {
	el := q.eng.Now()
	if el <= 0 {
		return 0
	}
	u := float64(q.busyTotal) / float64(el)
	if u > 1 {
		u = 1
	}
	return u
}

// TransferTime returns the time to move n bytes at bytesPerSec, rounded up
// to at least 1 ns for n > 0.
func TransferTime(n int64, bytesPerSec int64) Time {
	if n <= 0 {
		return 0
	}
	if bytesPerSec <= 0 {
		panic("sim: non-positive bandwidth")
	}
	t := Time(n * int64(Second) / bytesPerSec)
	if t == 0 {
		t = 1
	}
	return t
}
