package mapreduce

import (
	"testing"
	"testing/quick"
)

// fairShadow drives a Fair readySet through the mutations the simulator
// makes and keeps a shadow copy of every job's state, so each pick can be
// checked against the former pickMap rule: a linear scan for the minimum
// (running, seq) over the ready jobs.
type fairShadow struct {
	rs      readySet
	jobs    []*jobRun
	pending map[*jobRun]int
	blocked map[*jobRun]bool // not ready despite pending tasks (a failed job)
}

func (f *fairShadow) ready(r *jobRun) bool { return f.pending[r] > 0 && !f.blocked[r] }

// touch reconciles r the way Simulator.touch does.
func (f *fairShadow) touch(r *jobRun) { f.rs.set(r, f.ready(r)) }

// scan is the pickMap oracle.
func (f *fairShadow) scan() *jobRun {
	var best *jobRun
	for _, r := range f.jobs {
		if !f.ready(r) {
			continue
		}
		if best == nil || r.runningMaps < best.runningMaps ||
			(r.runningMaps == best.runningMaps && r.seq < best.seq) {
			best = r
		}
	}
	return best
}

func seqOf(r *jobRun) int {
	if r == nil {
		return 0
	}
	return r.seq
}

// nth returns the n-th (mod count) job satisfying keep, or nil.
func (f *fairShadow) nth(n int, keep func(*jobRun) bool) *jobRun {
	var cands []*jobRun
	for _, r := range f.jobs {
		if keep(r) {
			cands = append(cands, r)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return cands[n%len(cands)]
}

// apply performs one operation encoded in v: the low bits pick the kind,
// the rest its argument.
func (f *fairShadow) apply(v uint16) {
	op, arg := v%6, int(v/6)
	switch op {
	case 0: // a job becomes ready
		if len(f.jobs) == 24 {
			return
		}
		r := &jobRun{seq: len(f.jobs) + 1}
		f.jobs = append(f.jobs, r)
		f.pending[r] = 1 + arg%5
		f.touch(r)
	case 1: // a task starts on pick()
		if r := f.rs.pick(); r != nil {
			f.pending[r]--
			r.runningMaps++
			f.touch(r)
		}
	case 2: // a task finishes on a random running job
		if r := f.nth(arg, func(r *jobRun) bool { return r.runningMaps > 0 }); r != nil {
			r.runningMaps--
			f.touch(r)
		}
	case 3: // a crash kills several running tasks before the next pick
		for k := 0; k <= arg%4; k++ {
			r := f.nth(arg/4+k, func(r *jobRun) bool { return r.runningMaps > 0 })
			if r == nil {
				return
			}
			r.runningMaps--
			f.pending[r]++
			f.touch(r)
		}
	case 4: // a job becomes not-ready (possibly the held one)
		if r := f.nth(arg, f.ready); r != nil {
			f.blocked[r] = true
			f.touch(r)
		}
	case 5: // a job becomes ready again: unblocked, or a task re-queued
		r := f.nth(arg, func(r *jobRun) bool { return !f.ready(r) })
		if r == nil {
			return
		}
		if f.blocked[r] {
			f.blocked[r] = false
		} else {
			f.pending[r]++
		}
		f.touch(r)
	}
}

// TestFairReadySetMatchesScan is the differential property for the Fair
// ready heap's stored keys and deferred decrease-key: after every operation
// of a random sequence, pick returns exactly the job the linear scan picks.
func TestFairReadySetMatchesScan(t *testing.T) {
	prop := func(ops []uint16) bool {
		f := &fairShadow{
			rs:      readySet{policy: Fair, kind: kMap},
			pending: make(map[*jobRun]int),
			blocked: make(map[*jobRun]bool),
		}
		for i, v := range ops {
			f.apply(v)
			if got, want := f.rs.pick(), f.scan(); got != want {
				t.Logf("op %d of %v: pick seq %d, scan seq %d", i, ops, seqOf(got), seqOf(want))
				return false
			}
			for j, e := range f.rs.heap {
				if e.run.heapPos[kMap] != j+1 {
					t.Logf("op %d: heap slot %d holds a job whose heapPos is %d", i, j, e.run.heapPos[kMap])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
