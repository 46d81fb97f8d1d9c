package sweep

import (
	"errors"
	"strings"
	"testing"
	"time"

	"hybridmr/internal/simclock"
)

func TestProtectPanic(t *testing.T) {
	err := Protect(func() { panic("boom") })
	if err == nil {
		t.Fatal("panic not converted")
	}
	var perr *PointError
	if !errors.As(err, &perr) {
		t.Fatalf("error %T is not a *PointError", err)
	}
	if perr.Panic != "boom" || perr.Budget != nil {
		t.Errorf("point error %+v, want the panic value", perr)
	}
	if len(perr.Stack) == 0 || !strings.Contains(string(perr.Stack), "TestProtectPanic") {
		t.Error("stack not captured at the panic site")
	}
	if !strings.Contains(perr.Error(), "boom") {
		t.Errorf("error %q drops the panic value", perr.Error())
	}
	if Protect(func() {}) != nil {
		t.Error("clean run reported an error")
	}
}

func TestProtectBudget(t *testing.T) {
	e := simclock.New()
	e.SetWatchdog(&simclock.Watchdog{MaxEvents: 10})
	var fn simclock.Event
	fn = func(now time.Duration) { e.At(now+time.Second, fn) }
	e.At(0, fn)
	err := Protect(func() { e.Run() })
	if err == nil {
		t.Fatal("budget stop not converted")
	}
	var perr *PointError
	if !errors.As(err, &perr) || perr.Budget == nil {
		t.Fatalf("error %v is not a budget point error", err)
	}
	// The BudgetError is reachable through the chain for callers matching
	// on the cause.
	var berr *simclock.BudgetError
	if !errors.As(err, &berr) || berr.MaxEvents != 10 {
		t.Errorf("BudgetError not unwrapped: %v", err)
	}
	if len(perr.Stack) != 0 {
		t.Error("budget stop carries a stack (it is not a bug site)")
	}
}

func TestParseBudget(t *testing.T) {
	good := map[string]Budget{
		"":                          {},
		"events=5000000":            {MaxEvents: 5000000},
		"events=1e7":                {MaxEvents: 10000000},
		"simtime=48h":               {MaxSimTime: 48 * time.Hour},
		"events=100, simtime=30m":   {MaxEvents: 100, MaxSimTime: 30 * time.Minute},
		" events=1 , simtime=1s , ": {MaxEvents: 1, MaxSimTime: time.Second},
		"events=1e8":                {MaxEvents: 100000000},
		"events=5e7,simtime=720h":   {MaxEvents: 50000000, MaxSimTime: 720 * time.Hour},
		"events=9007199254740992":   {MaxEvents: 1 << 53},
	}
	for spec, want := range good {
		got, err := ParseBudget(spec)
		if err != nil || got != want {
			t.Errorf("ParseBudget(%q) = %+v, %v; want %+v", spec, got, err, want)
		}
	}
	bad := []string{
		"events", "events=", "events=zero", "events=0", "simtime=never", "simtime=-1h", "walltime=5s",
		// Event counts that are not whole numbers in [1, 2^64).
		"events=NaN", "events=+Inf", "events=-Inf", "events=1e30", "events=2.7", "events=0.5",
		"events=18446744073709551615", "events=9007199254740994", "events=-3",
	}
	for _, spec := range bad {
		_, err := ParseBudget(spec)
		var serr *SpecError
		if !errors.As(err, &serr) {
			t.Errorf("ParseBudget(%q) = %v, want a *SpecError", spec, err)
		}
	}
}
