// Panic isolation and run budgets: one pathological sweep point — a
// simulation that panics or runs away past its watchdog budget — must yield
// a typed per-point error and leave the rest of the experiment's results
// intact, not crash the process.

package sweep

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"hybridmr/internal/simclock"
)

// PointError reports one simulation point that failed outside its model: a
// panic in the simulation code or a watchdog budget stop. The surrounding
// experiment renders the point as failed and carries on.
type PointError struct {
	// Panic is the recovered panic value for non-budget failures.
	Panic any
	// Stack is the goroutine stack captured at recovery, empty for budget
	// stops (the stop instant is described by Budget instead).
	Stack []byte
	// Budget is set when the failure was a watchdog stop.
	Budget *simclock.BudgetError
}

// Error implements error with a one-line summary; the stack is available on
// the field for diagnostics that want it.
func (e *PointError) Error() string {
	if e.Budget != nil {
		return "sweep: point stopped: " + e.Budget.Error()
	}
	return fmt.Sprintf("sweep: point panicked: %v", e.Panic)
}

// Unwrap exposes the BudgetError to errors.As/Is chains.
func (e *PointError) Unwrap() error {
	if e.Budget != nil {
		return e.Budget
	}
	return nil
}

// Protect runs fn, converting a panic into a *PointError: watchdog
// *simclock.BudgetError panics become budget stops, anything else keeps the
// panic value and captured stack. A nil return means fn completed.
func Protect(fn func()) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		var berr *simclock.BudgetError
		if errors.As(toError(r), &berr) {
			err = &PointError{Budget: berr}
			return
		}
		err = &PointError{Panic: r, Stack: debug.Stack()}
	}()
	fn()
	return nil
}

// toError views a recovered panic value as an error for errors.As, wrapping
// non-error values in a sentinel that matches nothing.
func toError(r any) error {
	if err, ok := r.(error); ok {
		return err
	}
	return errors.New("sweep: non-error panic")
}

// Budget is the user-facing name of the engine watchdog, carried by the
// CLIs' -watchdog flag and the experiment options. The zero value disables
// the watchdog.
type Budget = simclock.Watchdog

// SpecError reports one entry of a -watchdog spec that ParseBudget rejects.
type SpecError struct {
	// Entry is the offending comma-separated entry, as written.
	Entry string
	// Reason says what a valid entry needs.
	Reason string
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("sweep: watchdog spec %q: %s", e.Entry, e.Reason)
}

// ParseBudget parses the -watchdog flag syntax: comma-separated
// "events=N,simtime=D" with either key optional, e.g. "events=5000000",
// "simtime=48h", "events=1e7,simtime=72h". An empty spec is the zero budget.
// A malformed entry — including an event count that is not a whole number
// in [1, 2^53], such as NaN, +Inf, 1e30 or 2.7 — is a *SpecError.
func ParseBudget(spec string) (Budget, error) {
	var b Budget
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return b, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Budget{}, &SpecError{Entry: kv, Reason: "want key=value"}
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch key {
		case "events":
			// Float notation ("1e7") is allowed, but the count must be a
			// whole number a float64 holds exactly.
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || !(f >= 1 && f <= 1<<53) || f != math.Trunc(f) {
				return Budget{}, &SpecError{Entry: kv, Reason: "want a whole event count in [1, 2^53]"}
			}
			b.MaxEvents = uint64(f)
		case "simtime":
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return Budget{}, &SpecError{Entry: kv, Reason: "want a positive duration"}
			}
			b.MaxSimTime = d
		default:
			return Budget{}, &SpecError{Entry: kv, Reason: "unknown key (want events=, simtime=)"}
		}
	}
	return b, nil
}
