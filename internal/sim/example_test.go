package sim_test

import (
	"fmt"

	"flashwalker/internal/sim"
)

// announcer prints a message per event kind, stamped with the firing time.
type announcer struct {
	eng  *sim.Engine
	msgs []string
}

func (a *announcer) HandleEvent(ev sim.Event) {
	fmt.Println(a.msgs[ev.Kind], "at", a.eng.Now())
}

// Schedule typed events and run them in time order.
func ExampleEngine() {
	e := sim.New()
	a := &announcer{eng: e, msgs: []string{"first", "second"}}
	e.Schedule(20, sim.Event{Target: a, Kind: 1})
	e.Schedule(10, sim.Event{Target: a, Kind: 0})
	e.Run()
	// Output:
	// first at 10ns
	// second at 20ns
}

// A Queue serializes contended requests like a bus.
func ExampleQueue() {
	e := sim.New()
	a := &announcer{eng: e, msgs: []string{"transfer 1 done", "transfer 2 done"}}
	bus := sim.NewQueue(e)
	bus.AcquireEvent(100, sim.Event{Target: a, Kind: 0})
	bus.AcquireEvent(100, sim.Event{Target: a, Kind: 1})
	e.Run()
	// Output:
	// transfer 1 done at 100ns
	// transfer 2 done at 200ns
}
