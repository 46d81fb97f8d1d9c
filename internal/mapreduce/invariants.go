package mapreduce

import (
	"fmt"
	"strings"
	"time"
)

// This file is the always-on invariant layer the chaos-search engine
// (internal/chaos) replays against: a per-replay InvariantChecker attaches to
// a simulator and records violations of the model's structural contracts —
// job conservation, map-output re-execution, sim-time monotonicity, slot-pool
// balance, and engine quiescence at drain. The hooks follow the simObs
// pattern (observe.go): a nil checker costs one pointer compare per hook
// site and zero allocations, pinned by TestPooledReplaySteadyStateAllocs,
// so the layer can stay compiled into the kernel's hot paths permanently.
//
// Violations are collected, not panicked: the chaos engine treats them as
// data (a finding to minimize), and the golden tests assert the collection is
// empty. A model bug that also breaks control flow (a job that never drains)
// still surfaces through the existing panics, which sweep.Protect converts
// into typed per-point errors.

// Violation is one recorded invariant breach.
type Violation struct {
	// Invariant names the contract that broke (stable, kebab-case):
	// job-conservation, task-attempts, map-output-ledger, time-monotonic,
	// slot-balance, quiescence, blacklist-parole, determinism.
	Invariant string
	// Detail is the human-readable evidence.
	Detail string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// maxViolations bounds one checker's collection; a broken invariant usually
// fires on every affected job, and the first few occurrences carry all the
// signal the minimizer needs.
const maxViolations = 64

// InvariantChecker collects invariant violations from one replay. Attach it
// to each simulator through Config.Invariants; it is not
// safe for concurrent use — concurrent replays each build their own.
type InvariantChecker struct {
	list    []Violation
	dropped int
}

// NewInvariantChecker returns an empty checker.
func NewInvariantChecker() *InvariantChecker { return &InvariantChecker{} }

// Violate records one violation; past maxViolations it only counts.
func (c *InvariantChecker) Violate(invariant, format string, args ...any) {
	if len(c.list) >= maxViolations {
		c.dropped++
		return
	}
	c.list = append(c.list, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
}

// Violations returns the recorded breaches in occurrence order.
func (c *InvariantChecker) Violations() []Violation { return c.list }

// Dropped reports violations discarded past the collection cap.
func (c *InvariantChecker) Dropped() int { return c.dropped }

// Ok reports whether the replay held every invariant.
func (c *InvariantChecker) Ok() bool { return c == nil || len(c.list) == 0 }

// Err summarizes the collection as one error, nil when clean — the
// assert-only mode the resilience and fifo_crash golden tests run in.
func (c *InvariantChecker) Err() error {
	if c.Ok() {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "mapreduce: %d invariant violation(s)", len(c.list)+c.dropped)
	n := len(c.list)
	if n > 3 {
		n = 3
	}
	for _, v := range c.list[:n] {
		b.WriteString("; ")
		b.WriteString(v.String())
	}
	return fmt.Errorf("%s", b.String())
}

// invState is the per-simulator slice of the invariant layer: the attached
// checker plus the counters the checks compare. It lives directly on the
// Simulator so the hot-path hook sites cost one field load and one nil
// compare when disabled; recycle() drops the whole struct.
type invState struct {
	checker             *InvariantChecker
	lastNow             time.Duration
	submitted, finished int
}

// invFinish checks one finished result: conservation counting, the sim-time
// monotonicity watermark, and the result's internal time arithmetic. Called
// from finish() behind the nil guard.
func (s *Simulator) invFinish(r Result, now time.Duration) {
	c := s.inv.checker
	s.inv.finished++
	if s.inv.finished > s.inv.submitted {
		c.Violate("job-conservation", "%s: job %s finished but only %d submissions were recorded (%d results)",
			s.platform.Name, r.Job.ID, s.inv.submitted, s.inv.finished)
	}
	if now < s.inv.lastNow {
		c.Violate("time-monotonic", "%s: job %s finished at %v after the clock already reached %v",
			s.platform.Name, r.Job.ID, now, s.inv.lastNow)
	}
	s.inv.lastNow = now
	if r.Err == nil {
		switch {
		case r.Exec != r.End-r.Submit:
			c.Violate("time-monotonic", "%s: job %s: exec %v != end %v - submit %v",
				s.platform.Name, r.Job.ID, r.Exec, r.End, r.Submit)
		case r.End < r.Start || r.Start < r.Submit:
			c.Violate("time-monotonic", "%s: job %s: submit %v, start %v, end %v out of order",
				s.platform.Name, r.Job.ID, r.Submit, r.Start, r.End)
		}
	}
}

// invComplete checks a completing job's task ledgers: every map and reduce
// accounted for, and the completed-map output ledger in sync — a completed
// map whose output was lost to a crash must have been re-executed, never
// silently kept on the books (Hadoop 1.x tasktracker-loss semantics,
// faultsim.go). A simulator that cannot crash keeps no ledger, so only the
// counts are checked there. Called from completeJob behind the nil guard,
// before the run recycles.
func (s *Simulator) invComplete(run *jobRun, end time.Duration) {
	c := s.inv.checker
	mapsDone, redsDone := run.kinds[kMap].done, run.kinds[kRed].done
	if mapsDone != run.pl.mapTasks || redsDone != run.pl.reducers {
		c.Violate("job-conservation", "%s: job %s completed at %v with %d/%d maps, %d/%d reduces done",
			s.platform.Name, run.job.ID, end, mapsDone, run.pl.mapTasks, redsDone, run.pl.reducers)
	}
	if s.keepLedger && int(run.ledger.n) != mapsDone {
		c.Violate("map-output-ledger", "%s: job %s completed with %d map outputs on record but %d maps counted done — a lost completed-map output was never re-executed",
			s.platform.Name, run.job.ID, run.ledger.n, mapsDone)
	}
}

// invSlots checks the slot-pool balance: free counts within [0, capacity]
// and the queue counters non-negative. Called from dispatch (after grants)
// and the fault transitions, behind the nil guard.
func (s *Simulator) invSlots() {
	c := s.inv.checker
	for k := range nKinds {
		if sp := &s.slots[k]; sp.free < 0 || sp.free > sp.cap || sp.queued < 0 {
			c.Violate("slot-balance", "%s: %s slots free/cap %d/%d, queued %d out of range",
				s.platform.Name, kindName[k], sp.free, sp.cap, sp.queued)
		}
	}
	if s.setupMaps < 0 {
		c.Violate("slot-balance", "%s: setupMaps %d negative", s.platform.Name, s.setupMaps)
	}
}

// CheckDrainedInvariants verifies the simulator reached quiescence: every
// submission produced exactly one result, no attempt or engine timer is
// still in flight, the slot pools returned to capacity, and the pending-task
// counters drained. Call after the engine has run to completion (not after a
// watchdog stop — an aborted replay legitimately leaves work in flight).
// No-op without an attached checker.
func (s *Simulator) CheckDrainedInvariants() {
	c := s.inv.checker
	if c == nil {
		return
	}
	if s.running != 0 || s.inv.finished != s.inv.submitted {
		c.Violate("job-conservation", "%s: drained with %d jobs still running (%d submitted, %d finished)",
			s.platform.Name, s.running, s.inv.submitted, s.inv.finished)
	}
	if n := len(s.inflight); n != 0 {
		c.Violate("quiescence", "%s: drained with %d task attempts still in flight", s.platform.Name, n)
	}
	if n := s.eng.Pending(); n != 0 {
		c.Violate("quiescence", "%s: drained with %d engine timers pending", s.platform.Name, n)
	}
	if n := len(s.active); n != 0 {
		c.Violate("quiescence", "%s: drained with %d jobs still active", s.platform.Name, n)
	}
	for k := range nKinds {
		if sp := &s.slots[k]; sp.free != sp.cap || sp.queued != 0 {
			c.Violate("slot-balance", "%s: drained with %s slots leaked or tasks queued: free/cap %d/%d, queued %d",
				s.platform.Name, kindName[k], sp.free, sp.cap, sp.queued)
		}
	}
	if s.setupMaps != 0 {
		c.Violate("slot-balance", "%s: drained with setupMaps %d", s.platform.Name, s.setupMaps)
	}
	s.invSlots()
}

// silentMapLossBug, when set, deliberately breaks loseCompletedMaps: crashed
// machines' completed map outputs are dropped from the ledger WITHOUT being
// re-queued for re-execution — the classic "bookkeeping thinks the output is
// still there" scheduler bug. It exists solely so the chaos engine's
// self-tests (and `chaoshunt -inject-bug`) can prove the invariant layer
// catches a real scheduler defect and minimizes it to a tiny repro. Never
// set it outside those harnesses.
var silentMapLossBug bool

// EnableSilentMapLossBug arms the deliberate map-output-loss bug and returns
// the function that disarms it. Test-and-demo only; set it before any replay
// goroutine starts and restore it after they all finish — the flag itself is
// an unsynchronized bool.
func EnableSilentMapLossBug() (restore func()) {
	silentMapLossBug = true
	return func() { silentMapLossBug = false }
}
