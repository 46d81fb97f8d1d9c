package mapreduce

import (
	"sort"
	"strconv"
	"time"

	"hybridmr/internal/faults"
)

// This file threads the gray-failure layer (internal/faults degradation
// windows) through the event simulator. Unlike a crash, a gray failure takes
// no capacity: the machines keep their slots but run slower.
//
// The model splits the four degradation streams by the level they act at:
//
//   - cpu and disk windows stretch task attempts. A window covering k of the
//     avail live machines with factor f slows the cluster's attempts by the
//     uniform weight (avail-k+k·f)/avail — the simulator does not place
//     attempts on machines, so the per-machine slowdown is spread across the
//     pool. In-flight attempts rescale their remaining work at every window
//     transition; attempts started inside a window are stretched at arming.
//   - nic and rack windows change how new jobs are planned: the planning
//     view's fabric is throttled (per-node NIC bandwidth, bisection) and a
//     throttleable file system's server links share the NIC throttle.
//     Attempts already in flight keep their planned durations, matching the
//     storage-loss simplification documented in faultsim.go.
//
// Speculative cloning is the scheduler's response: when a slowdown window
// opens and pushes the cluster past cloneThreshold, in-flight
// attempts get a backup clone on a free slot at the healthy (jitter-free)
// planned speed — modelling placement away from the gray machines. The first
// finisher wins and the loser is killed, Hadoop-speculation style.
//
// Two documented simplifications: a window's weight is fixed when it opens
// (a crash changing the live-machine count mid-window does not re-weight
// it), and shuffle/setup spans are not stretched — cpu/disk windows act on
// task attempts only.

// cloneThreshold is the attempt slowdown at which a simulator built with
// Config.Clone clones in-flight attempts. A clone against an unslowed
// original can never win, so it must exceed 1.
const cloneThreshold = 1.5

// graySlow is the current attempt-level stretch factor (1 = clean).
func (s *Simulator) graySlow() float64 { return s.cpuSlow * s.diskSlow }

// GraySlowdown reports the current attempt-level gray stretch factor: 1 when
// no cpu/disk window is open. The failure-aware scheduler scales its ETA
// probes by it.
func (s *Simulator) GraySlowdown() float64 { return s.graySlow() }

// GrayActive reports whether any gray window — attempt-level or
// planning-level — is currently open.
func (s *Simulator) GrayActive() bool {
	return s.graySlow() != 1 || s.nicSlow != 1 || s.rackSlow != 1
}

// armAttempt schedules the attempt's completion, stretching the planned
// duration by the current gray slowdown. With no window open this is exactly
// the former eng.After(d) arming, so clean replays are byte-identical.
func (s *Simulator) armAttempt(att *attempt, d, now time.Duration) {
	slow := s.graySlow()
	if slow != 1 {
		d = time.Duration(float64(d) * slow)
	}
	att.slow = slow
	att.fireAt = now + d
	att.timers = 1
	s.eng.At(att.fireAt, att.fireFn)
}

// grayWeight spreads a window covering count machines at the given factor
// uniformly across the live pool. count 0 (or more than are live) covers
// every machine.
func (s *Simulator) grayWeight(count int, factor float64) float64 {
	avail := s.platform.Spec.Machines - s.machinesDown
	if avail <= 0 {
		return factor // unreachable: crash validation keeps ≥1 machine live
	}
	k := count
	if k <= 0 || k > avail {
		k = avail
	}
	return (float64(avail-k) + float64(k)*factor) / float64(avail)
}

// applyGray transitions one gray window edge at its instant.
func (s *Simulator) applyGray(ev faults.Event, now time.Duration) {
	switch ev.Kind {
	case faults.NICThrottle:
		s.nicSlow = ev.Factor
	case faults.NICOk:
		s.nicSlow = 1
	case faults.RackPartition:
		s.rackSlow = ev.Factor
	case faults.RackHeal:
		s.rackSlow = 1
	case faults.CPUSlow, faults.CPUOk, faults.DiskSlow, faults.DiskOk:
		old := s.graySlow()
		w := 1.0
		if !ev.Kind.IsRecovery() {
			w = s.grayWeight(ev.Count, ev.Factor)
		}
		if ev.Kind == faults.CPUSlow || ev.Kind == faults.CPUOk {
			s.cpuSlow = w
		} else {
			s.diskSlow = w
		}
		s.rescaleAttempts(old, s.graySlow(), now)
		if !ev.Kind.IsRecovery() {
			s.speculateClones(now)
		}
	}
	if s.obsv.trace.Enabled() {
		s.traceFault("gray-"+ev.Kind.String(), now,
			"slowdown ×"+strconv.FormatFloat(s.graySlow(), 'g', 4, 64)+
				", nic ×"+strconv.FormatFloat(s.nicSlow, 'g', 4, 64)+
				", rack ×"+strconv.FormatFloat(s.rackSlow, 'g', 4, 64))
	}
}

// rescaleAttempts re-times every in-flight attempt's completion for a new
// slowdown: the remaining interval is rescaled by newSlow relative to the
// slowdown it was computed under. Moving earlier arms an extra timer (the
// old one drains as stale); moving later just records the new instant — the
// pending timer re-arms when it fires early. Clones are exempt: they model
// placement on machines outside the gray set.
func (s *Simulator) rescaleAttempts(oldSlow, newSlow float64, now time.Duration) {
	if newSlow == oldSlow {
		return
	}
	for _, att := range s.inflight {
		if att.isClone {
			continue
		}
		remaining := att.fireAt - now
		if remaining <= 0 {
			continue // completing at this very instant; let it fire
		}
		stretched := time.Duration(float64(remaining) * newSlow / att.slow)
		att.slow = newSlow
		at := now + stretched
		if at < att.fireAt {
			att.fireAt = at
			att.timers++
			s.eng.At(at, att.fireFn)
		} else {
			att.fireAt = at
		}
	}
}

// speculateClones runs the clone pass at a window-open instant: the oldest
// unpartnered attempts (longest delayed, deterministic by attempt.seq) get a
// healthy-speed backup on a free slot, but only where that backup would
// actually beat the stretched original.
func (s *Simulator) speculateClones(now time.Duration) {
	if !s.clone || s.graySlow() < cloneThreshold {
		return
	}
	cands := make([]*attempt, 0, len(s.inflight))
	for _, att := range s.inflight {
		if !att.isClone && att.partner == nil && !att.run.failed {
			cands = append(cands, att)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].seq < cands[j].seq })
	for _, att := range cands {
		if s.slots[att.kind].free <= 0 {
			continue
		}
		d := att.run.pl.task[att.kind]
		if now+d >= att.fireAt {
			continue // the original finishes first anyway; keep the slot
		}
		s.startClone(att, d, now)
	}
}

// startClone launches the speculative backup of orig: a full attempt on a
// free slot, jitter-free at healthy speed.
func (s *Simulator) startClone(orig *attempt, d, now time.Duration) {
	run, kind := orig.run, orig.kind
	s.slots[kind].free--
	run.kinds[kind].running++
	s.obsv.started[kind].Inc()
	s.touch(kind, run)
	c := s.addAttempt(run, orig.taskID, kind)
	c.isClone = true
	c.partner, orig.partner = orig, c
	c.slow = 1
	c.fireAt = now + d
	c.timers = 1
	s.eng.At(c.fireAt, c.fireFn)
	s.clonesStarted++
	if s.obsv.trace.Enabled() {
		s.obsv.trace.Instant(s.obsv.track, run.job.ID, "speculate", now,
			"clone of task "+strconv.Itoa(orig.taskID))
	}
	s.noteSlots()
}

// loseSpeculation kills the winner's partner: the losing attempt's slot
// frees, its pending timer drains as stale, and the task is NOT re-queued —
// the winner's completion carries it.
func (s *Simulator) loseSpeculation(winner *attempt, now time.Duration) {
	loser := winner.partner
	winner.partner, loser.partner = nil, nil
	loser.killed = true
	s.removeAttempt(loser)
	run := loser.run
	s.slots[loser.kind].free++
	run.kinds[loser.kind].running--
	s.touch(loser.kind, run)
	if winner.isClone {
		s.clonesWon++
	}
	if s.obsv.trace.Enabled() {
		side := "original"
		if winner.isClone {
			side = "clone"
		}
		s.obsv.trace.Instant(s.obsv.track, run.job.ID, "speculation-won", now,
			side+" won task "+strconv.Itoa(loser.taskID))
	}
}
