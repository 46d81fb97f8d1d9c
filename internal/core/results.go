package core

import (
	"time"

	"hybridmr/internal/mapreduce"
	"hybridmr/internal/workload"
)

// resultSlots collects one replay's per-job results by workload index: job i
// is submitted with Tag i, and its result lands in slot i of a slice
// allocated once. When the workload is already in arrival order the slots
// are the output and nothing is sorted (see arrivalOrdered).
//
// With an invariant checker attached, a write to a slot that is already
// filled is a job-conservation violation: a job reported twice would
// otherwise balance the count of a job never reported.
type resultSlots[T any] struct {
	vals   []T
	filled []bool // tracked only with a checker attached
	writes int
	inv    *mapreduce.InvariantChecker
	where  string // the replay's name in violation messages
}

// newResultSlots returns n empty slots; inv may be nil.
func newResultSlots[T any](n int, inv *mapreduce.InvariantChecker, where string) *resultSlots[T] {
	s := &resultSlots[T]{vals: make([]T, n), inv: inv, where: where}
	if inv != nil {
		s.filled = make([]bool, n)
	}
	return s
}

// put stores job i's result; id names the job in a violation.
func (s *resultSlots[T]) put(i int, v T, id string) {
	if s.filled != nil {
		if s.filled[i] {
			s.inv.Violate("job-conservation", "%s: job %s reported twice", s.where, id)
		}
		s.filled[i] = true
	}
	s.vals[i] = v
	s.writes++
}

// placeResult returns RunBaselineChecked's result sink: each result goes to
// the slot its Tag names and leaves without the Tag.
func placeResult(rs *resultSlots[mapreduce.Result]) func(mapreduce.Result, time.Duration) {
	return func(r mapreduce.Result, _ time.Duration) {
		i := r.Job.Tag
		r.Job.Tag = 0
		rs.put(i, r, r.Job.ID)
	}
}

// checkCount flags a replay whose result count differs from its job count.
// No-op without a checker.
func (s *resultSlots[T]) checkCount() {
	if s.inv != nil && s.writes != len(s.vals) {
		s.inv.Violate("job-conservation", "%s: %d jobs submitted, %d results", s.where, len(s.vals), s.writes)
	}
}

// arrivalOrdered reports whether jobs is in mapreduce.ByArrival order
// (Submit, then ID). workload.Generate and both trace readers emit that
// order, so a replay's slots usually need no sort.
func arrivalOrdered(jobs []workload.Job) bool {
	for i := 1; i < len(jobs); i++ {
		a, b := &jobs[i-1], &jobs[i]
		if a.Submit > b.Submit || a.Submit == b.Submit && a.ID > b.ID {
			return false
		}
	}
	return true
}
