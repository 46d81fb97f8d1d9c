package core

import (
	"hybridmr/internal/mapreduce"
	"hybridmr/internal/workload"
)

// tally is a replay body's job-conservation account. Job i is submitted with
// Tag i and its result comes back carrying it, so the body can note each
// result's index as it delivers it. With an invariant checker attached, an
// index delivered twice is a job-conservation violation (a job reported
// twice would otherwise balance the count of a job never reported), and so
// is a result count that differs from the job count at drain. Without a
// checker the tally keeps nothing.
type tally struct {
	filled  []bool // tracked only with a checker attached
	results int
	inv     *mapreduce.InvariantChecker
	where   string // the replay's name in violation messages
}

// newTally returns the account for a replay of n jobs; inv may be nil.
func newTally(n int, inv *mapreduce.InvariantChecker, where string) tally {
	t := tally{inv: inv, where: where}
	if inv != nil {
		t.filled = make([]bool, n)
	}
	return t
}

// add notes job i's result; id names the job in a violation.
func (t *tally) add(i int, id string) {
	if t.inv == nil {
		return
	}
	if t.filled[i] {
		t.inv.Violate("job-conservation", "%s: job %s reported twice", t.where, id)
	}
	t.filled[i] = true
	t.results++
}

// check flags a replay whose result count differs from its job count.
func (t *tally) check() {
	if t.inv != nil && t.results != len(t.filled) {
		t.inv.Violate("job-conservation", "%s: %d jobs submitted, %d results", t.where, len(t.filled), t.results)
	}
}

// arrivalOrdered reports whether jobs is in mapreduce.ByArrival order
// (Submit, then ID). workload.Generate and both trace readers emit that
// order, so the slice-returning replays usually need no sort.
func arrivalOrdered(jobs []workload.Job) bool {
	for i := 1; i < len(jobs); i++ {
		a, b := &jobs[i-1], &jobs[i]
		if a.Submit > b.Submit || a.Submit == b.Submit && a.ID > b.ID {
			return false
		}
	}
	return true
}
