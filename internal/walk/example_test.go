package walk_test

import (
	"context"
	"fmt"

	"flashwalker/internal/graph"
	"flashwalker/internal/walk"
)

// Run fixed-length unbiased walks on a ring: the trajectory is forced, so
// the output is exact.
func ExampleRunContext() {
	g := graph.Ring(8)
	spec := walk.Spec{Kind: walk.Unbiased, Length: 3}
	ws := walk.NewWalks(spec, []graph.VertexID{2}, 1)
	st, _ := walk.RunContext(context.Background(), g, spec, ws, 1, func(i int, path []graph.VertexID) {
		fmt.Println("path:", path)
	})
	fmt.Println("hops:", st.TotalHops)
	// Output:
	// path: [2 3 4 5]
	// hops: 3
}

// SimRank of a vertex with itself is 1 by definition.
func ExampleSimRank() {
	g := graph.Ring(5)
	s, _ := walk.SimRank(g, 3, 3, 10, 4, 0.6, 1)
	fmt.Println("s(v,v):", s)
	// Output:
	// s(v,v): 1
}
