package simclock

import (
	"testing"
	"time"
)

// The zero-alloc contract of the event kernel: once the heap slice has grown
// to its steady-state footprint, scheduling must not allocate. These budgets
// are what keeps a million-job replay out of the allocator; any regression
// fails here before it shows up as a benchmark drift.

// TestEngineAfterSteadyStateAllocs pins Engine.After + Step at zero
// allocations against a standing 64-event backlog (so both sift paths run).
func TestEngineAfterSteadyStateAllocs(t *testing.T) {
	e := New()
	noop := Event(func(time.Duration) {})
	// Standing backlog far in the future keeps the heap depth constant
	// while each measured iteration pushes and pops one near event.
	for i := 1; i <= 64; i++ {
		e.After(time.Duration(i)*time.Hour, noop)
	}
	avg := testing.AllocsPerRun(1000, func() {
		e.After(time.Millisecond, noop)
		if !e.Step() {
			t.Fatal("no pending event")
		}
	})
	if avg != 0 {
		t.Errorf("Engine.After+Step steady state: %v allocs/op, want 0", avg)
	}
}

// TestEngineAtSteadyStateAllocs covers the At entry point directly.
func TestEngineAtSteadyStateAllocs(t *testing.T) {
	e := New()
	noop := Event(func(time.Duration) {})
	for i := 1; i <= 64; i++ {
		e.After(time.Duration(i)*time.Hour, noop)
	}
	avg := testing.AllocsPerRun(1000, func() {
		e.At(e.Now(), noop)
		e.Step()
	})
	if avg != 0 {
		t.Errorf("Engine.At+Step steady state: %v allocs/op, want 0", avg)
	}
}
