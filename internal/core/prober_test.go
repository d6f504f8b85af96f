package core

// countingProber counts the questions the run's edge filter answers.
type countingProber struct {
	edgeProber
	n *uint64
}

func (c countingProber) Contains(key uint64) bool {
	*c.n++
	return c.edgeProber.Contains(key)
}

// CountFilterAnswers wraps e's edge filter in a counter of the questions it
// answers and returns the count, for the external tests.
func CountFilterAnswers(e *Engine) *uint64 {
	n := new(uint64)
	e.edgeFilter = countingProber{e.edgeFilter, n}
	return n
}
