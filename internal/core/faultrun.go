package core

import (
	"fmt"
	"slices"
	"time"

	"hybridmr/internal/faults"
	"hybridmr/internal/mapreduce"
	"hybridmr/internal/obs"
	"hybridmr/internal/sweep"
	"hybridmr/internal/workload"
)

// Inject bundles the simulator's task-level chaos knobs (failure and
// straggler injection); it is mapreduce.Inject, named here so FaultRun and
// BaselineRun callers need not import mapreduce for it.
type Inject = mapreduce.Inject

// ReplayStats receives kernel statistics from one replay for the
// slice-returning forms, RunFaulted and RunBaselineChecked. The counters are
// deterministic (they count simulation events, not wall time), so callers may
// compare them across runs.
type ReplayStats struct {
	// Events is the number of events the simulation kernel executed.
	Events uint64
}

// FaultRun configures a trace replay under a fault schedule.
type FaultRun struct {
	// Schedule is the fault timeline; nil or empty replays a clean run.
	Schedule *faults.Schedule
	// FailureAware extends Algorithm 1 with per-half health: a job whose
	// preferred half is degraded is rerouted when the other half's
	// estimated completion wins, and failed jobs are retried with bounded
	// attempts and exponential backoff in simulated time. False replays
	// the paper's static Algorithm 1 under the same faults.
	FailureAware bool
	// Inject adds task-level chaos on both halves.
	Inject Inject
	// Blacklist enables per-half flaky-cluster benching: a half whose jobs
	// keep failing accumulates strikes, and at blacklistStrikes it is
	// benched for blacklistParole of simulated time — doubling per bench,
	// capped at 8× — during which new jobs route to the other half (unless
	// both are benched). Strikes reset when the bench is served.
	Blacklist bool
	// CloneStragglers enables speculative clone attempts on both halves: when
	// a gray slowdown window slows a cluster enough (mapreduce.Config.Clone),
	// its in-flight attempts get healthy-speed backups and the first
	// finisher wins.
	CloneStragglers bool
	// Watchdog bounds the replay's kernel: exceeding the budget panics with
	// a *simclock.BudgetError, which sweep.Protect converts into a typed
	// per-point error at the experiment layer. The zero budget is unlimited.
	Watchdog sweep.Budget
	// Runner memoizes the ETA probes of the failure-aware scheduler; nil
	// uses the process-wide default.
	Runner *sweep.Runner
	// Stats, when non-nil, receives the replay's kernel statistics after the
	// run completes. Only RunFaulted reads it; Replay returns the event
	// count instead.
	Stats *ReplayStats
	// Obs attaches observability: the tracer and metrics registry are
	// forwarded to both halves' simulators, and the audit log receives one
	// record per routing decision (including retries). The zero Set observes
	// nothing and keeps the replay's hot path allocation-free.
	Obs obs.Set
	// Invariants, when non-nil, attaches the invariant layer to both halves'
	// simulators and extends it with the hybrid-level contracts: workload
	// conservation (one JobResult per job), the job-attempt bound, the
	// blacklist parole cap, and quiescence at drain. The chaos engine
	// (internal/chaos) replays every campaign round with one attached; nil
	// costs nothing.
	Invariants *mapreduce.InvariantChecker
}

// The failure-aware and resilience policies of Replay.
const (
	// maxJobAttempts bounds submissions per job under FailureAware,
	// including the first.
	maxJobAttempts = 3
	// retryBackoff is the first retry delay in simulated time, doubling
	// per attempt.
	retryBackoff = 30 * time.Second
	// blacklistStrikes is the job failures that bench a half.
	blacklistStrikes = 3
	// blacklistParole is the first bench duration.
	blacklistParole = 10 * time.Minute
)

// benchState is one half's blacklist account: consecutive job-failure
// strikes, the exponential bench level already served, and the sim-time
// instant the current bench ends.
type benchState struct {
	strikes int
	level   int
	until   time.Duration
}

// half is one cluster of the hybrid during a Replay: its
// simulator and its blacklist account.
type half struct {
	sim   *mapreduce.Simulator
	bench benchState
}

// bench serves a bench: blacklistParole doubled per prior bench, capped
// at 8×.
func (b *benchState) bench(now time.Duration) {
	shift := b.level
	if shift > 3 {
		shift = 3
	}
	b.until = now + blacklistParole<<shift
	b.level++
	b.strikes = 0
}

// other flips a routing target.
func other(t Target) Target {
	if t == ScaleUp {
		return ScaleOut
	}
	return ScaleUp
}

// Replay executes the workload on the hybrid under a fault schedule and
// hands each job's outcome to sink as the job finishes for good: i is the
// job's index in jobs, and r is valid only during the call (the replay
// reuses it), so a sink copies what it keeps. Results arrive in completion
// order, once per job. Both halves share the Fair scheduler, as Facebook's
// production clusters did (the paper cites it as [4]). The zero FaultRun is
// the paper's clean replay. Replay returns the number of events the
// simulation kernel executed. The error reports a hybrid without a
// scheduler or an unsurvivable or incoherent schedule (or bad injection
// bounds), before any simulation runs. RunFaulted and Run are the
// slice-returning forms.
func (h *Hybrid) Replay(jobs []workload.Job, opt FaultRun, sink func(i int, r *JobResult)) (events uint64, err error) {
	if h.Sched == nil {
		return 0, fmt.Errorf("core: hybrid has no scheduler")
	}
	runner := opt.Runner
	if runner == nil {
		runner = sweep.Default()
	}
	fp := opt.Schedule.Fingerprint()
	// out is the record the sink sees and the replay's conservation
	// account: one heap cell per replay, reused for every result.
	out := struct {
		rec   JobResult
		tally tally
	}{tally: newTally(len(jobs), opt.Invariants, "hybrid")}

	// The replay runs on pooled state: engine heap, simulators, job and
	// attempt records all come back warm from earlier replays. WithState
	// also recycles the state when a watchdog panic unwinds the replay.
	err = mapreduce.WithState(func(rst *mapreduce.ReplayState) error {
		eng := rst.Engine()
		if opt.Watchdog != (sweep.Budget{}) {
			// Copied only when set: the engine keeps the address, so
			// the copy lives on the heap.
			w := opt.Watchdog
			eng.SetWatchdog(&w)
		}
		// state tracks one workload job (jobs[i]) across its (possibly
		// retried) submissions; the latest routing decision wins.
		type state struct {
			target   Target // Algorithm 1's static choice
			dest     Target // where the job actually went
			rerouted bool
			attempts int
		}
		// One backing array for every job's state, indexed by arrival
		// order. The index rides the submitted job's Tag and comes back in
		// its Result, so tracking 6000 jobs costs one allocation and no
		// hashing.
		backing := make([]state, len(jobs))
		// Both halves, indexed by Target. submit reaches the simulators
		// through this array because they are built after record, which
		// they deliver to; the blacklist accounts need the same shared
		// storage anyway, so the simulators cost the closures no extra
		// heap cell.
		var halves [2]half

		submit := func(idx int) {
			upSim, outSim := halves[ScaleUp].sim, halves[ScaleOut].sim
			st := &backing[idx]
			job := &jobs[idx]
			st.attempts++
			target := h.Sched.Decide(*job)
			dest := target
			rerouted := false
			var probe healthProbe
			if opt.FailureAware {
				d, pr := h.rerouteForHealth(*job, target, upSim, outSim, runner, fp)
				probe = pr
				if d != target {
					dest, rerouted = d, true
				}
			}
			blacklisted := false
			var benchUntil time.Duration
			if opt.Blacklist {
				now := eng.Now()
				if now < halves[dest].bench.until && now >= halves[other(dest)].bench.until {
					benchUntil = halves[dest].bench.until
					dest, blacklisted = other(dest), true
				}
			}
			if h.Balance {
				dest = divert(dest, upSim, outSim)
			}
			st.target, st.dest, st.rerouted = target, dest, rerouted
			if opt.Obs.Audit.Enabled() {
				cross := h.Sched.CrossPoints()
				opt.Obs.Audit.Record(obs.Decision{
					At:              eng.Now(),
					Job:             job.ID,
					App:             job.App.Name,
					Size:            job.SchedulingSize(),
					Ratio:           float64(job.App.ShuffleInputRatio),
					RatioKnown:      job.RatioKnown,
					Threshold:       cross.Threshold(job.App.ShuffleInputRatio, job.RatioKnown),
					Static:          target.String(),
					Dest:            dest.String(),
					Attempt:         st.attempts,
					Rerouted:        rerouted,
					Diverted:        dest != target,
					Probed:          probe.probed,
					PrefETA:         probe.prefETA,
					AltETA:          probe.altETA,
					PrefOK:          probe.prefOK,
					AltOK:           probe.altOK,
					UpMachinesDown:  upSim.MachinesDown(),
					OutMachinesDown: outSim.MachinesDown(),
					UpStorageDown:   upSim.StorageDown(),
					OutStorageDown:  outSim.StorageDown(),
					Blacklisted:     blacklisted,
					BenchUntil:      benchUntil,
				})
			}
			mj := job.MapReduceJob()
			mj.Tag = idx
			if dest == ScaleUp {
				upSim.SubmitNow(mj)
			} else {
				outSim.SubmitNow(mj)
			}
		}

		record := func(r mapreduce.Result, now time.Duration) {
			idx := r.Job.Tag
			st := &backing[idx]
			if opt.Blacklist && r.Err != nil {
				// The half the job actually failed on takes the strike.
				b := &halves[st.dest].bench
				b.strikes++
				if b.strikes >= blacklistStrikes {
					b.bench(now)
					if opt.Invariants != nil && b.until-now > blacklistParole<<3 {
						opt.Invariants.Violate("blacklist-parole", "%s benched until %v at %v: bench exceeds the 8x parole cap (%v)",
							st.dest, b.until, now, blacklistParole<<3)
					}
					if opt.Obs.Trace.Enabled() {
						opt.Obs.Trace.Instant("hybrid", "blacklist", "bench", now,
							st.dest.String()+" benched until "+b.until.String())
					}
				}
			}
			if r.Err != nil && opt.FailureAware && st.attempts < maxJobAttempts {
				// Exponential backoff in simulated time; the retry is
				// re-routed at its new arrival instant, so it sees the
				// cluster's health then.
				delay := retryBackoff << (st.attempts - 1)
				eng.After(delay, func(time.Duration) { submit(idx) })
				return
			}
			// Time the job from its original arrival: queueing plus every
			// retry round trip counts against it. The job index rode in
			// Tag; the result leaves without it.
			r.Submit = jobs[idx].Submit
			r.Exec = r.End - r.Submit
			r.Job.Tag = 0
			out.tally.add(idx, r.Job.ID)
			if opt.Invariants != nil && (st.attempts < 1 || st.attempts > maxJobAttempts) {
				opt.Invariants.Violate("task-attempts", "hybrid: job %s finished with %d attempts, budget [1,%d]",
					r.Job.ID, st.attempts, maxJobAttempts)
			}
			out.rec = JobResult{
				Result:   r,
				Target:   st.target,
				Diverted: st.dest != st.target,
				Rerouted: st.rerouted,
				Attempts: st.attempts,
			}
			sink(idx, &out.rec)
		}

		// One configuration for both halves; each gets its own cluster's
		// faults, scheduled at construction, so at equal instants a
		// capacity change precedes an arrival (the engine is FIFO per tick).
		cfg := mapreduce.Config{
			Policy:     mapreduce.Fair,
			Trace:      opt.Obs.Trace,
			Metrics:    opt.Obs.Metrics,
			Invariants: opt.Invariants,
			Inject:     opt.Inject,
			Clone:      opt.CloneStragglers,
			Faults:     opt.Schedule.ForCluster(faults.ClusterUp),
		}
		upSim, err := rst.Simulator(h.Up, cfg, record)
		if err != nil {
			return err
		}
		cfg.Faults = opt.Schedule.ForCluster(faults.ClusterOut)
		outSim, err := rst.Simulator(h.Out, cfg, record)
		if err != nil {
			return err
		}
		halves[ScaleUp].sim, halves[ScaleOut].sim = upSim, outSim

		scheduleArrivals(eng, jobs, submit)
		eng.Run()
		events = eng.Events()
		if opt.Invariants != nil {
			upSim.CheckDrainedInvariants()
			outSim.CheckDrainedInvariants()
			out.tally.check()
		}
		return nil
	})
	return events, err
}

// RunFaulted is Replay collecting every result into a slice in
// mapreduce.ByArrival order: each result is written into its job's slot as
// it finishes, and the slots are sorted only when jobs is not already in
// arrival order. The event count goes to opt.Stats when it is set.
func (h *Hybrid) RunFaulted(jobs []workload.Job, opt FaultRun) ([]JobResult, error) {
	vals := make([]JobResult, len(jobs))
	events, err := h.Replay(jobs, opt, func(i int, r *JobResult) { vals[i] = *r })
	if err != nil {
		return nil, err
	}
	if opt.Stats != nil {
		opt.Stats.Events = events
	}
	if !arrivalOrdered(jobs) {
		slices.SortFunc(vals, func(a, b JobResult) int { return mapreduce.ByArrival(a.Result, b.Result) })
	}
	return vals, nil
}

// healthProbe reports what the failure-aware reroute looked at, for the
// decision audit log: whether ETA probes ran at all, and each half's
// estimate with its validity flag.
type healthProbe struct {
	probed          bool
	prefETA, altETA time.Duration
	prefOK, altOK   bool
}

// rerouteForHealth is the failure-aware extension of Algorithm 1: when the
// preferred half is degraded (machines or storage down, or a gray slowdown
// window open), both halves' completion times are estimated — the isolated
// run on the half's currently degraded platform view, stretched by its queue
// backlog and gray slowdown — and the job moves only when the other half
// strictly wins. A healthy preferred half is never second-guessed, so under
// an empty schedule the routing is exactly Algorithm 1's. The returned probe
// carries the ETA evidence for the audit log (zero when the health gate
// short-circuited).
func (h *Hybrid) rerouteForHealth(job workload.Job, preferred Target, upSim, outSim *mapreduce.Simulator, runner *sweep.Runner, faultsFP uint64) (Target, healthProbe) {
	prefSim, altSim, alt := upSim, outSim, ScaleOut
	if preferred == ScaleOut {
		prefSim, altSim, alt = outSim, upSim, ScaleUp
	}
	if prefSim.MachinesDown() == 0 && prefSim.StorageDown() == 0 && !prefSim.GrayActive() {
		return preferred, healthProbe{}
	}
	var probe healthProbe
	probe.probed = true
	probe.prefETA, probe.prefOK = etaOn(prefSim, job, runner, faultsFP)
	probe.altETA, probe.altOK = etaOn(altSim, job, runner, faultsFP)
	switch {
	case !probe.prefOK && probe.altOK:
		// The degraded half cannot even plan the job (capacity); the
		// other half can.
		return alt, probe
	case probe.prefOK && probe.altOK && probe.altETA < probe.prefETA:
		return alt, probe
	}
	return preferred, probe
}

// etaOn estimates a job's completion time on one half right now: the
// isolated execution on the half's degraded platform view (which carries any
// gray network throttle), scaled by (1 + queued maps / map slots) for the
// backlog in front of it and by the half's attempt-level gray slowdown.
// Estimates are memoized under the fault schedule's fingerprint, so they
// never alias clean sweep entries; the gray view's distinct platform name
// keeps throttled entries from aliasing binary-degraded ones.
func etaOn(sim *mapreduce.Simulator, job workload.Job, runner *sweep.Runner, faultsFP uint64) (time.Duration, bool) {
	p, err := sim.PlatformNow()
	if err != nil {
		return 0, false
	}
	r := runner.Cache().RunIsolated(p, job.MapReduceJob(), faultsFP)
	if r.Err != nil {
		return 0, false
	}
	load := 1 + float64(sim.MapQueueDepth())/float64(sim.MapSlotCapacity())
	return time.Duration(float64(r.Exec) * load * sim.GraySlowdown()), true
}

// BaselineRun configures a replay on one undivided baseline platform
// (THadoop or RHadoop in §V). The zero value is a clean FIFO replay.
type BaselineRun struct {
	// Policy is the slot-sharing policy.
	Policy mapreduce.Policy
	// Faults is the platform's fault timeline; callers pass
	// Schedule.ForBaseline(). Nil replays a clean run. Failed jobs stay
	// failed: the traditional architectures have no second half to retry
	// on.
	Faults []faults.Event
	// Inject adds task-level chaos.
	Inject Inject
	// Watchdog bounds the replay's kernel: an over-budget replay stops by
	// panicking with a *simclock.BudgetError, which callers convert into a
	// typed per-point error via sweep.Protect. The zero budget is
	// unlimited.
	Watchdog sweep.Budget
	// Invariants, when non-nil, observes the whole replay and the drain,
	// and checks workload conservation (one result per job).
	Invariants *mapreduce.InvariantChecker
}

// baselineReplay is one ReplayBaseline's result path: it hands each
// simulator result to the sink under its job index and keeps the
// conservation tally. rec is the one record every result is copied into,
// so delivering a result allocates nothing.
type baselineReplay struct {
	sink  func(int, *mapreduce.Result)
	tally tally
	rec   mapreduce.Result
}

// record is the simulator's result sink: the job index rides in Tag, and
// the result leaves without it.
func (b *baselineReplay) record(r mapreduce.Result, _ time.Duration) {
	i := r.Job.Tag
	r.Job.Tag = 0
	b.tally.add(i, r.Job.ID)
	b.rec = r
	b.sink(i, &b.rec)
}

// ReplayBaseline replays the workload on one undivided baseline platform
// and hands each job's result to sink as the job finishes: i is the job's
// index in jobs, and r is valid only during the call (the replay reuses
// it), so a sink copies what it keeps. Results arrive in completion order,
// once per job. ReplayBaseline returns the number of events the simulation
// kernel executed. The error reports a configuration the simulator refuses
// (an incoherent timeline, bad injection bounds) before any job runs.
// RunBaselineChecked and RunBaseline are the slice-returning forms.
func ReplayBaseline(p *mapreduce.Platform, jobs []workload.Job, run BaselineRun, sink func(i int, r *mapreduce.Result)) (events uint64, err error) {
	b := &baselineReplay{sink: sink, tally: newTally(len(jobs), run.Invariants, p.Name)}
	err = mapreduce.WithState(func(rst *mapreduce.ReplayState) error {
		eng := rst.Engine()
		if run.Watchdog != (sweep.Budget{}) {
			// Copied only when set, as in Replay.
			w := run.Watchdog
			eng.SetWatchdog(&w)
		}
		sim, err := rst.Simulator(p, mapreduce.Config{Policy: run.Policy, Invariants: run.Invariants, Inject: run.Inject, Faults: run.Faults}, b.record)
		if err != nil {
			return err
		}
		for i, j := range jobs {
			mj := j.MapReduceJob()
			mj.Tag = i
			sim.Submit(mj)
		}
		eng.Run()
		events = eng.Events()
		if run.Invariants != nil {
			sim.CheckDrainedInvariants()
			b.tally.check()
		}
		return nil
	})
	return events, err
}

// RunBaselineChecked is ReplayBaseline with its options as positional
// arguments, collecting every result into a slice in mapreduce.ByArrival
// order: each result is written into its job's slot as it finishes, and the
// slots are sorted only when jobs is not already in arrival order. The
// event count goes to stats when it is non-nil. RunBaseline is the clean
// case.
func RunBaselineChecked(p *mapreduce.Platform, jobs []workload.Job, policy mapreduce.Policy, events []faults.Event, inj Inject, stats *ReplayStats, budget sweep.Budget, inv *mapreduce.InvariantChecker) ([]mapreduce.Result, error) {
	vals := make([]mapreduce.Result, len(jobs))
	run := BaselineRun{Policy: policy, Faults: events, Inject: inj, Watchdog: budget, Invariants: inv}
	ran, err := ReplayBaseline(p, jobs, run, func(i int, r *mapreduce.Result) { vals[i] = *r })
	if err != nil {
		return nil, err
	}
	if stats != nil {
		stats.Events = ran
	}
	if !arrivalOrdered(jobs) {
		slices.SortFunc(vals, mapreduce.ByArrival)
	}
	return vals, nil
}
