package sim

import (
	"testing"
	"testing/quick"
)

func TestQueueServesImmediatelyWhenIdle(t *testing.T) {
	e := New()
	q := NewQueue(e)
	end := q.AcquireEvent(100, Event{})
	if end != 100 {
		t.Fatalf("idle queue completion = %v, want 100", end)
	}
}

func TestQueueSerializesRequests(t *testing.T) {
	e := New()
	q := NewQueue(e)
	// Three back-to-back requests issued at t=0 must finish at 10, 30, 60.
	ends := []Time{q.AcquireEvent(10, Event{}), q.AcquireEvent(20, Event{}), q.AcquireEvent(30, Event{})}
	want := []Time{10, 30, 60}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	if q.Waited() != 10+30 {
		t.Fatalf("Waited = %v, want 40", q.Waited())
	}
}

func TestQueueCompletionCallbacks(t *testing.T) {
	e := New()
	q := NewQueue(e)
	r := &recorder{eng: e}
	q.AcquireEvent(5, Event{Target: r})
	q.AcquireEvent(5, Event{Target: r})
	e.Run()
	if len(r.times) != 2 || r.times[0] != 5 || r.times[1] != 10 {
		t.Fatalf("completions at %v, want [5 10]", r.times)
	}
}

func TestQueueIdleGapThenNewRequest(t *testing.T) {
	e := New()
	q := NewQueue(e)
	q.AcquireEvent(10, Event{})
	e.Schedule(100, Event{Target: handle(func(Event) {
		if end := q.AcquireEvent(10, Event{}); end != 110 {
			t.Errorf("request after idle gap ends at %v, want 110", end)
		}
	})})
	e.Run()
	if q.BusyTotal() != 20 {
		t.Fatalf("BusyTotal = %v, want 20", q.BusyTotal())
	}
}

func TestQueueAcquireAfter(t *testing.T) {
	e := New()
	q := NewQueue(e)
	// Data staged at t=50; the bus is free, so service runs 50..70.
	if end := q.AcquireAfter(50, 20, Event{}); end != 70 {
		t.Fatalf("AcquireAfter end = %v, want 70", end)
	}
	// Next request ready at t=60 must queue behind until 70.
	if end := q.AcquireAfter(60, 20, Event{}); end != 90 {
		t.Fatalf("queued AcquireAfter end = %v, want 90", end)
	}
}

func TestQueueUtilization(t *testing.T) {
	e := New()
	q := NewQueue(e)
	q.AcquireEvent(25, Event{})
	e.Run()
	e.RunUntil(100)
	if u := q.Utilization(); u != 0.25 {
		t.Fatalf("Utilization = %v, want 0.25", u)
	}
}

func TestQueueNegativeServicePanics(t *testing.T) {
	e := New()
	q := NewQueue(e)
	defer func() {
		if recover() == nil {
			t.Error("negative service did not panic")
		}
	}()
	q.AcquireEvent(-1, Event{})
}

func TestTransferTime(t *testing.T) {
	// 1000 bytes at 1 GB/s = 1000 ns.
	if tt := TransferTime(1000, 1e9); tt != 1000 {
		t.Fatalf("TransferTime = %v, want 1000", tt)
	}
	if tt := TransferTime(0, 1e9); tt != 0 {
		t.Fatalf("TransferTime(0) = %v, want 0", tt)
	}
	// Tiny transfers round up to 1 ns, never 0.
	if tt := TransferTime(1, 4e9); tt != 1 {
		t.Fatalf("TransferTime(1B@4GB/s) = %v, want 1", tt)
	}
}

func TestTransferTimeZeroBandwidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero bandwidth did not panic")
		}
	}()
	TransferTime(10, 0)
}

// Property: total busy time equals the sum of service times, and the last
// completion equals that sum when all requests are issued at t=0.
func TestQueueConservationProperty(t *testing.T) {
	f := func(services []uint8) bool {
		e := New()
		q := NewQueue(e)
		var sum, last Time
		for _, s := range services {
			sum += Time(s)
			last = q.AcquireEvent(Time(s), Event{})
		}
		return q.BusyTotal() == sum && (len(services) == 0 || last == sum)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
