package sim

import "testing"

// Benchmark handlers: two pointer types with no work, so the timings are
// the kernel's own — the target lookup, the slab and the wheels.
type (
	nopA struct{ n int }
	nopB struct{ n int }
)

func (h *nopA) HandleEvent(Event) { h.n++ }
func (h *nopB) HandleEvent(Event) { h.n++ }

// BenchmarkScheduleStep times one Schedule plus one Step with 4,096 events
// pending, one window ahead, as bench's sim.schedule_step_ns probe does.
// The targets cycle through two handler types alternating, or through four
// handlers of one type, which is the four boards' case.
func BenchmarkScheduleStep(b *testing.B) {
	for _, tc := range []struct {
		name    string
		targets []Handler
	}{
		{"two-types", []Handler{&nopA{}, &nopB{}}},
		{"four-of-one-type", []Handler{&nopA{}, &nopA{}, &nopA{}, &nopA{}}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			evs := make([]Event, len(tc.targets))
			for i, h := range tc.targets {
				evs[i] = Event{Target: h, A: int32(i)}
			}
			e := New()
			for i := 1; i <= 4096; i++ {
				e.Schedule(Time(i), evs[i%len(evs)])
			}
			// One round before the timer: the slab's first chunk is full,
			// and the next entry opens the second.
			e.Schedule(e.Now()+4096, evs[0])
			e.Step()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Schedule(e.Now()+4096, evs[i%len(evs)])
				e.Step()
			}
		})
	}
}
