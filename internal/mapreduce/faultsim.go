package mapreduce

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"hybridmr/internal/faults"
	"hybridmr/internal/simclock"
	"hybridmr/internal/storage/hdfs"
	"hybridmr/internal/storage/ofs"
)

// This file threads the fault-schedule layer (internal/faults) through the
// event simulator: machine crashes shrink the slot pools mid-run and kill
// the crashed machines' tasks, recoveries grow them back, and storage-server
// losses swap the platform jobs are planned against for a degraded view.
//
// Crash semantics follow Hadoop 1.x tasktracker loss: the JobTracker
// re-executes a lost node's in-flight tasks AND its completed map tasks,
// because map output lives on the tasktracker's local disk and is gone with
// the machine. Completed reduce output lives in the distributed file system
// and survives. Two documented simplifications: jobs already past their map
// phase (shuffle tail scheduled) keep their outputs — the copy phase has
// fetched them; and a job's task durations are fixed by the degradation
// level at its submission instant, so capacity loss mid-job shows up as
// narrower waves, not re-planned task times.

// attempt tracks one in-flight task attempt so a machine crash can kill it:
// the slot dies with the machine and the completion callback must not fire.
// idx is the attempt's position in Simulator.inflight (swap-remove
// back-pointer); seq is the global start order, which killAttempts uses to
// select the newest attempts deterministically now that swap-remove no
// longer keeps the slice chronologically ordered. fireFn is the bound fire
// method, created once per attempt object and reused across recycles, so a
// task start schedules its completion without allocating a closure.
//
// Attempts are pooled through Simulator.attemptFree. addAttempt runs once
// per task start, so it sets each field of a recycled record in place rather
// than assigning a whole fresh value, which measured slower there;
// TestRecycledSimulatorMatchesFresh checks that a re-handed attempt equals a
// freshly allocated one.
type attempt struct {
	sim    *Simulator
	run    *jobRun
	taskID int
	kind   int
	killed bool
	seq    uint64
	idx    int
	fireFn simclock.Event

	// Gray-degradation state (graysim.go). fireAt is the attempt's current
	// completion instant — a slowdown window opening or closing rescales it
	// by the remaining work; timers counts the engine timers referencing
	// this attempt (a rescale to an earlier instant arms an extra one, and
	// the attempt recycles only when the last timer has fired); done marks
	// a completed attempt whose stale timers are still draining; slow is
	// the slowdown the current fireAt was computed under; partner links a
	// speculative clone with its original (first finisher wins, the loser
	// is killed); isClone marks the speculative copy.
	fireAt  time.Duration
	timers  int
	done    bool
	slow    float64
	partner *attempt
	isClone bool
}

// fire is the attempt's completion event. A killed or superseded attempt
// only drains its stale timers here; a live attempt whose completion moved
// later (a slowdown window opened) re-arms; otherwise the attempt completes,
// kills its speculation partner if it still runs, and dispatches the task
// completion. The attempt recycles when its last timer has fired — that
// timer's callback is the last reader.
func (att *attempt) fire(now time.Duration) {
	s := att.sim
	att.timers--
	if att.killed || att.done {
		if att.timers == 0 {
			s.recycleAttempt(att)
		}
		return
	}
	if now < att.fireAt {
		// Stale early timer: the attempt was stretched past this instant.
		if att.timers == 0 {
			att.timers++
			s.eng.At(att.fireAt, att.fireFn)
		}
		return
	}
	att.done = true
	s.removeAttempt(att)
	run, taskID, kind := att.run, att.taskID, att.kind
	if att.partner != nil {
		s.loseSpeculation(att, now)
	}
	if att.timers == 0 {
		s.recycleAttempt(att)
	}
	s.taskDone(kind, run, taskID, now)
}

// addAttempt registers a starting task attempt in the in-flight index,
// reusing a recycled attempt when one is free so steady-state task traffic
// does not allocate per attempt.
func (s *Simulator) addAttempt(run *jobRun, taskID, kind int) *attempt {
	var att *attempt
	if n := len(s.attemptFree); n > 0 {
		att = s.attemptFree[n-1]
		s.attemptFree[n-1] = nil
		s.attemptFree = s.attemptFree[:n-1]
	} else {
		att = &attempt{}
		att.fireFn = att.fire
	}
	s.attemptSeq++
	att.sim, att.run, att.taskID, att.kind, att.killed = s, run, taskID, kind, false
	att.fireAt, att.timers, att.done, att.slow, att.partner, att.isClone = 0, 0, false, 1, nil, false
	att.seq, att.idx = s.attemptSeq, len(s.inflight)
	s.inflight = append(s.inflight, att)
	return att
}

// removeAttempt drops a finished attempt from the in-flight index in O(1)
// via its back-pointer (the former implementation scanned the whole list on
// every task completion).
func (s *Simulator) removeAttempt(att *attempt) {
	i := att.idx
	last := len(s.inflight) - 1
	s.inflight[i] = s.inflight[last]
	s.inflight[i].idx = i
	s.inflight[last] = nil
	s.inflight = s.inflight[:last]
	att.idx = -1
}

// recycleAttempt returns an attempt to the freelist. Only the attempt's own
// completion callback may call it — after removeAttempt on a normal finish,
// or on observing killed — because that callback is the last reader.
func (s *Simulator) recycleAttempt(att *attempt) {
	s.attemptFree = append(s.attemptFree, att)
}

// scheduleFaults validates a fault timeline (Config.Faults) against this
// platform and schedules its events on the engine. Storage events that do
// not match the platform's file system (OFS events on an HDFS platform and
// vice versa) are skipped — the hybrid's halves share one schedule but mount
// different file systems. The match is by file-system type, not name: a
// view's file system carries its levels in its name. The events must be
// time-ordered (faults.Schedule guarantees it); a timeline that would ever
// leave the cluster with no machine, exceed what the file system can
// survive, or recover capacity that never failed is rejected up front,
// before any event is scheduled. It runs at construction, before any job
// can be submitted, so fault events at an instant precede job arrivals at
// the same instant. A schedule with a machine crash makes the simulator
// keep the map-output ledger the crash re-queues from.
func (s *Simulator) scheduleFaults(events []faults.Event) error {
	_, onOFS := s.platform.FS.(*ofs.System)
	_, onHDFS := s.platform.FS.(*hdfs.System)
	relevant := make([]faults.Event, 0, len(events))
	for _, ev := range events {
		if err := ev.Validate(); err != nil {
			return err
		}
		switch ev.Kind {
		case faults.OFSServerDown, faults.OFSServerUp:
			if !onOFS {
				continue
			}
		case faults.DatanodeDown, faults.DatanodeUp:
			if !onHDFS {
				continue
			}
		}
		relevant = append(relevant, ev)
	}
	// Dry-run the whole walk before touching the engine, so a bad timeline
	// is an error at schedule time, never a panic mid-simulation.
	downM, downS := 0, 0
	var last time.Duration
	for _, ev := range relevant {
		if ev.At < last {
			return fmt.Errorf("mapreduce: %s: fault events out of order at %v", s.platform.Name, ev.At)
		}
		last = ev.At
		switch ev.Kind {
		case faults.MachineCrash:
			downM += ev.Count
			if downM >= s.platform.Spec.Machines {
				return fmt.Errorf("mapreduce: %s: fault schedule leaves no machines at %v (%d of %d down)",
					s.platform.Name, ev.At, downM, s.platform.Spec.Machines)
			}
		case faults.MachineRecover:
			downM -= ev.Count
			if downM < 0 {
				return fmt.Errorf("mapreduce: %s: machine recovery at %v without a matching crash", s.platform.Name, ev.At)
			}
		case faults.NICThrottle, faults.RackPartition:
			// The planning view under the throttle must be constructible
			// (and is memoized here for the live run).
			nic, rack := 1.0, ev.Factor
			if ev.Kind == faults.NICThrottle {
				nic, rack = ev.Factor, 1.0
			}
			if _, err := s.degradedPlatform(0, downS, nic, rack); err != nil {
				return fmt.Errorf("mapreduce: %s: fault schedule at %v: %w", s.platform.Name, ev.At, err)
			}
		default:
			if ev.Kind.IsGray() {
				// cpu/disk slowdowns and the nic/rack closers: weighted
				// attempt stretching cannot fail, and the window structure
				// was already checked by faults.Schedule.
				continue
			}
			if ev.Kind.IsRecovery() {
				downS -= ev.Count
				if downS < 0 {
					return fmt.Errorf("mapreduce: %s: storage recovery at %v without a matching loss", s.platform.Name, ev.At)
				}
			} else {
				downS += ev.Count
			}
			if _, err := s.degradedPlatform(0, downS, 1, 1); err != nil {
				return fmt.Errorf("mapreduce: %s: fault schedule at %v: %w", s.platform.Name, ev.At, err)
			}
		}
	}
	for _, ev := range relevant {
		ev := ev
		s.eng.At(ev.At, func(now time.Duration) { s.applyFault(ev, now) })
		if ev.Kind == faults.MachineCrash {
			// Only a crash can lose completed map outputs, so only a
			// simulator that may crash records them.
			s.keepLedger = true
		}
	}
	return nil
}

// applyFault transitions the cluster's health state at an event instant.
func (s *Simulator) applyFault(ev faults.Event, now time.Duration) {
	switch ev.Kind {
	case faults.MachineCrash:
		s.crashMachines(ev.Count, now)
	case faults.MachineRecover:
		s.recoverMachines(ev.Count, now)
	default:
		if ev.Kind.IsGray() {
			s.applyGray(ev, now)
			return
		}
		// Storage loss changes how future jobs are planned; I/O already
		// in flight keeps its planned duration (see file comment).
		if ev.Kind.IsRecovery() {
			s.storageDown -= ev.Count
			if s.obsv.trace.Enabled() {
				s.traceFault("storage-up", now,
					strconv.Itoa(ev.Count)+" back, "+strconv.Itoa(s.storageDown)+" still down")
			}
		} else {
			s.storageDown += ev.Count
			if s.obsv.trace.Enabled() {
				s.traceFault("storage-down", now,
					strconv.Itoa(ev.Count)+" lost, "+strconv.Itoa(s.storageDown)+" down")
			}
		}
	}
}

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// crashMachines takes k machines offline: their slots leave the pools, the
// attempts running on them die (re-queued per task), and — Hadoop 1.x
// tasktracker-loss semantics — the completed map outputs they held are lost
// and re-executed. Which attempts sat on the crashed machines is not modeled
// per-node; the busy share is prorated (ceiling) and the newest attempts die
// first, which is deterministic and biases against speculative progress.
func (s *Simulator) crashMachines(k int, now time.Duration) {
	avail := s.platform.Spec.Machines - s.machinesDown
	var killed [nKinds]int
	for kind := range nKinds {
		sp := &s.slots[kind]
		killed[kind] = s.killAttempts(kind, ceilDiv((sp.cap-sp.free)*k, avail), now)
		// The crashed machines' free slots vanish too. killed ≤
		// ceil(busy·k/avail) guarantees the remainder never exceeds the
		// free pool.
		sp.cap -= k * sp.perMachine
		sp.free -= k*sp.perMachine - killed[kind]
	}
	lostMaps := s.loseCompletedMaps(k, avail)
	s.machinesDown += k
	if s.obsv.trace.Enabled() {
		s.traceFault("machines-crash", now,
			strconv.Itoa(k)+" crashed ("+strconv.Itoa(s.machinesDown)+" down), killed "+
				strconv.Itoa(killed[kMap])+" maps + "+strconv.Itoa(killed[kRed])+" reduces, lost "+
				strconv.Itoa(lostMaps)+" map outputs")
	}
	if s.inv.checker != nil {
		s.invSlots()
	}
	s.dispatch(now)
}

// killAttempts kills up to n in-flight attempts of one kind, newest first,
// re-queuing each task on its job, and returns how many died. Newest-first
// is by attempt start order (attempt.seq): the same selection the
// pre-indexed implementation made by walking the chronologically ordered
// in-flight slice from the back, so faulted replays are byte-identical.
func (s *Simulator) killAttempts(kind, n int, now time.Duration) int {
	if n <= 0 {
		return 0
	}
	victims := make([]*attempt, 0, n)
	for _, att := range s.inflight {
		if att.kind == kind {
			victims = append(victims, att)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].seq > victims[j].seq })
	if n < len(victims) {
		victims = victims[:n]
	}
	for _, att := range victims {
		att.killed = true
		s.removeAttempt(att)
		// A speculation pair losing one side keeps the survivor on the
		// task, so the kill must not re-queue it; if both die in the same
		// crash, the first death unpairs and the second re-queues.
		paired := att.partner != nil
		if paired {
			att.partner.partner, att.partner = nil, nil
		}
		run := att.run
		run.kinds[kind].running--
		if !run.failed && !paired {
			// A crash kill is Hadoop's KILLED, not FAILED: it does not
			// count against the task's max attempts.
			s.requeue(kind, run, att.taskID, now, "killed")
		}
		s.touch(kind, run)
		// A failed job's run recycles with its last drained attempt; any
		// co-victims of the same run in this batch still hold a running
		// count each, so the recycle happens on the batch's last one.
		s.retireFailed(run)
	}
	return len(victims)
}

// loseCompletedMaps re-queues the prorated share of each map-phase job's
// completed maps — their outputs lived on the crashed machines' local disks —
// and returns how many were lost in total. The newest outputs go first.
func (s *Simulator) loseCompletedMaps(k, avail int) int {
	total := 0
	for _, run := range s.active {
		maps := &run.kinds[kMap]
		if run.failed || maps.done == 0 || maps.done == run.pl.mapTasks {
			continue // nothing done yet, or already past the map phase
		}
		lost := min(ceilDiv(maps.done*k, avail), int(run.ledger.n))
		if silentMapLossBug {
			// Deliberate defect (invariants.go): drop the outputs from the
			// ledger but forget to re-queue them — the job's bookkeeping
			// still counts the maps done. The chaos engine's invariant layer
			// must catch this as map-output-ledger.
			for range lost {
				s.stackPop(&run.ledger)
			}
			continue
		}
		for range lost {
			s.stackPush(&maps.req, s.stackPop(&run.ledger))
		}
		s.slots[kMap].queued += lost
		maps.done -= lost
		run.retries += lost
		total += lost
		s.obsv.taskRetries.Add(int64(lost))
		s.touch(kMap, run)
	}
	return total
}

// recoverMachines brings k machines back; their slots rejoin the pools empty.
func (s *Simulator) recoverMachines(k int, now time.Duration) {
	s.machinesDown -= k
	if s.obsv.trace.Enabled() {
		s.traceFault("machines-recover", now,
			strconv.Itoa(k)+" back, "+strconv.Itoa(s.machinesDown)+" still down")
	}
	for kind := range nKinds {
		sp := &s.slots[kind]
		sp.cap += k * sp.perMachine
		sp.free += k * sp.perMachine
	}
	if s.inv.checker != nil {
		s.invSlots()
	}
	s.dispatch(now)
}

// degradedPlatform returns the platform view with the given losses and gray
// network factors applied, memoized per level — fault timelines revisit the
// same few levels, and planning against a view must not rebuild it every job.
func (s *Simulator) degradedPlatform(machinesDown, storageDown int, nic, rack float64) (*Platform, error) {
	key := viewLevel{machinesDown, storageDown, nic, rack}
	if key == healthy {
		return s.platform, nil
	}
	if p, ok := s.degraded[key]; ok {
		return p, nil
	}
	p, err := s.platform.View(machinesDown, storageDown, nic, rack)
	if err != nil {
		return nil, err
	}
	if s.degraded == nil {
		s.degraded = make(map[viewLevel]*Platform)
	}
	s.degraded[key] = p
	return p, nil
}

// PlatformNow returns the platform as currently degraded: the healthy
// platform when everything is up, otherwise a view with the lost machines
// and storage servers removed and any gray network throttles applied. The
// failure-aware scheduler estimates ETAs against it.
func (s *Simulator) PlatformNow() (*Platform, error) {
	return s.degradedPlatform(s.machinesDown, s.storageDown, s.nicSlow, s.rackSlow)
}

// MachinesDown reports how many of the cluster's machines are currently
// crashed.
func (s *Simulator) MachinesDown() int { return s.machinesDown }

// StorageDown reports how many storage servers (OFS) or datanodes (HDFS) are
// currently lost.
func (s *Simulator) StorageDown() int { return s.storageDown }
