package simclock

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := New()
	var order []int
	e.At(3*time.Second, func(time.Duration) { order = append(order, 3) })
	e.At(1*time.Second, func(time.Duration) { order = append(order, 1) })
	e.At(2*time.Second, func(time.Duration) { order = append(order, 2) })
	end := e.Run()
	if end != 3*time.Second {
		t.Errorf("final time = %v, want 3s", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
	if e.Events() != 3 {
		t.Errorf("Events = %d, want 3", e.Events())
	}
}

func TestEngineFIFOAmongEqualTimes(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Second, func(time.Duration) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events ran out of order: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := New()
	var times []time.Duration
	e.After(time.Second, func(now time.Duration) {
		times = append(times, now)
		e.After(2*time.Second, func(now time.Duration) {
			times = append(times, now)
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != time.Second || times[1] != 3*time.Second {
		t.Errorf("times = %v", times)
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := New()
	ran := false
	e.After(-5*time.Second, func(now time.Duration) {
		if now != 0 {
			t.Errorf("clamped event ran at %v", now)
		}
		ran = true
	})
	e.Run()
	if !ran {
		t.Error("event never ran")
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := New()
	e.At(time.Second, func(time.Duration) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(0, func(time.Duration) {})
}

func TestEngineNilEventPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil event did not panic")
		}
	}()
	New().At(0, nil)
}

// Property: with arbitrary non-negative delays, events fire in
// non-decreasing time order and the engine drains completely.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New()
		var seen []time.Duration
		for _, d := range delays {
			e.At(time.Duration(d)*time.Millisecond, func(now time.Duration) {
				seen = append(seen, now)
			})
		}
		e.Run()
		if len(seen) != len(delays) {
			return false
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return e.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
