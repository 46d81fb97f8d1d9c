package mapreduce

import (
	"fmt"
	"testing"
	"testing/quick"
)

// readyShadow drives a readySet through the mutations the simulator makes
// and keeps a shadow copy of every job's state, so each pick can be checked
// against the former pickMap rule: a linear scan over the ready jobs for
// the minimum (running, seq) under Fair, the minimum seq under FIFO.
type readyShadow struct {
	policy  Policy
	rs      readySet
	jobs    []*jobRun
	pending map[*jobRun]int
	blocked map[*jobRun]bool // not ready despite pending tasks (a failed job)
}

func newReadyShadow(p Policy) *readyShadow {
	return &readyShadow{
		policy:  p,
		rs:      readySet{policy: p, kind: kMap},
		pending: make(map[*jobRun]int),
		blocked: make(map[*jobRun]bool),
	}
}

func (f *readyShadow) ready(r *jobRun) bool { return f.pending[r] > 0 && !f.blocked[r] }

// touch reconciles r the way Simulator.touch does.
func (f *readyShadow) touch(r *jobRun) { f.rs.set(r, f.ready(r)) }

// before reports whether a precedes b in the policy's pick order.
func (f *readyShadow) before(a, b *jobRun) bool {
	if ra, rb := a.kinds[kMap].running, b.kinds[kMap].running; f.policy == Fair && ra != rb {
		return ra < rb
	}
	return a.seq < b.seq
}

// scan is the pickMap oracle.
func (f *readyShadow) scan() *jobRun {
	var best *jobRun
	for _, r := range f.jobs {
		if f.ready(r) && (best == nil || f.before(r, best)) {
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
func (f *readyShadow) nth(n int, keep func(*jobRun) bool) *jobRun {
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

// running reports whether r has a task in flight.
func running(r *jobRun) bool { return r.kinds[kMap].running > 0 }

// apply performs one operation encoded in v: the low bits pick the kind,
// the rest its argument.
func (f *readyShadow) apply(v uint16) {
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
			r.kinds[kMap].running++
			f.touch(r)
		}
	case 2: // a task finishes on a random running job
		if r := f.nth(arg, running); r != nil {
			r.kinds[kMap].running--
			f.touch(r)
		}
	case 3: // a crash kills several running tasks before the next pick;
		// a fully dispatched older job re-enters the set
		for k := 0; k <= arg%4; k++ {
			r := f.nth(arg/4+k, running)
			if r == nil {
				return
			}
			r.kinds[kMap].running--
			f.pending[r]++
			f.touch(r)
		}
	case 4: // a job becomes not-ready (possibly the held one)
		if r := f.nth(arg, f.ready); r != nil {
			f.blocked[r] = true
			f.touch(r)
		}
	case 5: // a job becomes ready again: unblocked, or a task re-queued
		// after a failure
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

// mismatch describes how pick disagrees with the scan, or a heap slot whose
// job does not point back at it; "" when neither happens.
func (f *readyShadow) mismatch() string {
	if got, want := f.rs.pick(), f.scan(); got != want {
		return fmt.Sprintf("pick seq %d, scan seq %d", seqOf(got), seqOf(want))
	}
	for j, e := range f.rs.heap {
		if e.run.kinds[kMap].heapPos != j+1 {
			return fmt.Sprintf("heap slot %d holds a job whose heapPos is %d", j, e.run.kinds[kMap].heapPos)
		}
	}
	return ""
}

// TestReadySetMatchesScan is the differential property for both ready sets
// — the FIFO list, and the Fair heap's stored keys and deferred
// decrease-key: after every operation of a random sequence, pick returns
// exactly the job the linear scan picks. Kills (op 3) and failure
// re-queues (op 5) bring fully dispatched older jobs back, which the FIFO
// list must insert ahead of younger ones.
func TestReadySetMatchesScan(t *testing.T) {
	for _, p := range []Policy{FIFO, Fair} {
		prop := func(ops []uint16) bool {
			f := newReadyShadow(p)
			for i, v := range ops {
				f.apply(v)
				if m := f.mismatch(); m != "" {
					t.Logf("%v, op %d of %v: %s", p, i, ops, m)
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
			t.Errorf("%v: %v", p, err)
		}
	}
}
