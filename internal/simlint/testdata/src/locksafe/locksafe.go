// Fixture for the locksafe analyzer: goroutine launches, sync.Map
// declarations and float folds across goroutines in sim packages are
// diagnostics; locks shared by pointer and goroutine-local folds are not.
package locksafe

import "sync"

type guarded struct {
	mu sync.Mutex
	n  int
}

func launch(ch chan int) int {
	go func() { ch <- 1 }() // want "goroutine launch in a sim package"
	return <-ch
}

type registry struct {
	entries sync.Map // want "sync.Map iterates in nondeterministic order"
}

var table sync.Map // want "sync.Map iterates in nondeterministic order"

type nested struct {
	byName [2]registry // want "sync.Map iterates in nondeterministic order"
}

// A lock shared by pointer: no diagnostic.
func locked(g *guarded) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n++
	return g.n
}

// A float fold into a captured variable is reported even where the go
// statement itself is allowed: the goroutines finish in schedule order.
func fanIn(xs []float64) float64 {
	var total float64
	done := make(chan struct{})
	//simlint:allow locksafe fixture: a sanctioned launch, as in the engine's worker pool
	go func() {
		for _, v := range xs {
			total += v // want "schedule order"
		}
		close(done)
	}()
	<-done
	return total
}

// A goroutine-local accumulator handed back over a channel folds in slice
// order: only the launch is a diagnostic.
func localFold(xs []float64) float64 {
	ch := make(chan float64)
	go func() { // want "goroutine launch in a sim package"
		var local float64
		for _, v := range xs {
			local += v
		}
		ch <- local
	}()
	return <-ch
}
