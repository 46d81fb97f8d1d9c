// Fixture for the locksafe analyzer: goroutine launches and sync.Map
// declarations in sim packages are diagnostics; locks shared by pointer
// are not.
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
