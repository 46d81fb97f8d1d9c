package simclock

import (
	"errors"
	"testing"
	"time"
)

// runGuarded runs the engine to completion, returning the BudgetError the
// watchdog delivered by panic, or nil if the run finished inside budget.
func runGuarded(e *Engine) (berr *BudgetError) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if berr, ok = r.(*BudgetError); !ok {
				panic(r)
			}
		}
	}()
	e.Run()
	return nil
}

// chain schedules a self-perpetuating event: the runaway simulation shape
// the watchdog exists for.
func chain(e *Engine, step time.Duration) {
	var fn Event
	fn = func(now time.Duration) { e.At(now+step, fn) }
	e.At(0, fn)
}

func TestWatchdogEventBudget(t *testing.T) {
	e := New()
	e.SetWatchdog(&Watchdog{MaxEvents: 100})
	chain(e, time.Second)
	berr := runGuarded(e)
	if berr == nil {
		t.Fatal("runaway chain finished inside a 100-event budget")
	}
	if berr.MaxEvents != 100 || berr.Events != 100 {
		t.Errorf("budget error %+v, want 100 events against a 100-event budget", berr)
	}
	var err error = berr
	var as *BudgetError
	if !errors.As(err, &as) {
		t.Error("BudgetError does not satisfy errors.As")
	}
}

func TestWatchdogSimTimeBudget(t *testing.T) {
	e := New()
	e.SetWatchdog(&Watchdog{MaxSimTime: time.Minute})
	chain(e, time.Second)
	berr := runGuarded(e)
	if berr == nil {
		t.Fatal("runaway chain finished inside a 1-minute sim-time budget")
	}
	if berr.MaxSimTime != time.Minute {
		t.Errorf("budget error %+v, want sim-time budget echo", berr)
	}
	if berr.SimTime <= time.Minute {
		t.Errorf("stopped at %v, inside the budget", berr.SimTime)
	}
	// Events at exactly the budget instant still run: a day-long trace with
	// a day-long budget completes.
	e2 := New()
	e2.SetWatchdog(&Watchdog{MaxSimTime: 10 * time.Second})
	var ran int
	for i := 0; i <= 10; i++ {
		e2.At(time.Duration(i)*time.Second, func(time.Duration) { ran++ })
	}
	if berr := runGuarded(e2); berr != nil {
		t.Fatalf("in-budget run stopped: %v", berr)
	}
	if ran != 11 {
		t.Errorf("ran %d of 11 in-budget events", ran)
	}
}

func TestWatchdogDisabled(t *testing.T) {
	e := New()
	e.SetWatchdog(&Watchdog{MaxEvents: 1})
	e.SetWatchdog(nil)
	for i := 0; i < 10; i++ {
		e.At(time.Duration(i), func(time.Duration) {})
	}
	if berr := runGuarded(e); berr != nil {
		t.Fatalf("removed watchdog still fired: %v", berr)
	}
	// The zero Watchdog is unlimited.
	e2 := New()
	e2.SetWatchdog(&Watchdog{})
	for i := 0; i < 10; i++ {
		e2.At(time.Duration(i), func(time.Duration) {})
	}
	if berr := runGuarded(e2); berr != nil {
		t.Fatalf("zero watchdog fired: %v", berr)
	}
}

// The watchdog must not break the zero-alloc steady state when installed.
func TestWatchdogSteadyStateAllocs(t *testing.T) {
	e := New()
	e.SetWatchdog(&Watchdog{MaxEvents: 1 << 40, MaxSimTime: 1 << 50})
	var fn Event
	n := 0
	fn = func(now time.Duration) {
		if n++; n < 100 {
			e.At(now+time.Second, fn)
		}
	}
	e.At(0, fn)
	e.Step() // warm the heap slice
	allocs := testing.AllocsPerRun(50, func() { e.Step() })
	if allocs > 0 {
		t.Errorf("guarded Step allocates %v/op, want 0", allocs)
	}
}
