package core

import (
	"time"

	"hybridmr/internal/mapreduce"
	"hybridmr/internal/simclock"
	"hybridmr/internal/sweep"
	"hybridmr/internal/workload"
)

// Hybrid is the paper's hybrid scale-up/out Hadoop architecture (§IV): a
// scale-up cluster and a scale-out cluster mounting the same remote file
// system (OFS), so any job can read its data from either side without
// transferring it, plus the Algorithm 1 scheduler deciding where each job
// runs. An optional load balancer implements the future-work extension of
// §VII. Both halves share the Fair scheduler (see Replay).
type Hybrid struct {
	// Up and Out are the two halves; the paper uses 2 scale-up and 12
	// scale-out machines, both on OFS.
	Up, Out *mapreduce.Platform
	// Sched routes jobs (Algorithm 1).
	Sched *Scheduler
	// Balance diverts jobs away from an overloaded queue (§VII future
	// work; see divert). False reproduces the paper's architecture.
	Balance bool
}

// NewHybrid assembles the paper's hybrid: up-OFS and out-OFS platforms with
// the paper's cross points.
func NewHybrid(cal mapreduce.Calibration) (*Hybrid, error) {
	up, err := mapreduce.NewArch(mapreduce.UpOFS, cal)
	if err != nil {
		return nil, err
	}
	out, err := mapreduce.NewArch(mapreduce.OutOFS, cal)
	if err != nil {
		return nil, err
	}
	sched, err := NewScheduler(PaperCrossPoints())
	if err != nil {
		return nil, err
	}
	return &Hybrid{Up: up, Out: out, Sched: sched}, nil
}

// JobResult is a simulated job's outcome plus the routing decision.
type JobResult struct {
	mapreduce.Result
	// Target is the cluster Algorithm 1 chose.
	Target Target
	// Diverted reports that the job ran on the opposite cluster from
	// Target — because the load balancer overrode the choice, the
	// failure-aware scheduler rerouted it, or the blacklist benched its
	// half.
	Diverted bool
	// Rerouted reports that the failure-aware scheduler moved the job off
	// its degraded preferred half (always false without
	// FaultRun.FailureAware, so always false under Run).
	Rerouted bool
	// Attempts counts the job's submissions including the first: 1 unless
	// FaultRun.FailureAware retried the job after a failure.
	Attempts int
}

// Run executes the workload on the hybrid: both halves share one simulated
// clock, each with its own slot pools, and every job is routed at its
// arrival instant — so the load balancer (if any) sees live queue depths.
// It is RunFaulted with no faults, injection or failure awareness, and
// returns the results in mapreduce.ByArrival order.
func (h *Hybrid) Run(jobs []workload.Job) []JobResult {
	rs, err := h.RunFaulted(jobs, FaultRun{})
	if err != nil {
		panic(err)
	}
	return rs
}

// scheduleArrivals schedules one arrival event per job, delivering each
// job's slice index to fn at its Submit instant. A Submit-sorted slice (the
// common case: the workload generator emits monotone arrivals and the trace
// readers sort) rides one shared cursor closure — queued events fire in the
// engine's (at, seq) FIFO order, which equals slice order, so the i-th
// firing delivers index i. An unsorted slice falls back to one closure per
// job; either way the firing schedule is identical to the per-job-closure
// form.
func scheduleArrivals(eng *simclock.Engine, jobs []workload.Job, fn func(int)) {
	sorted := true
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Submit < jobs[i-1].Submit {
			sorted = false
			break
		}
	}
	if !sorted {
		for i, job := range jobs {
			eng.At(job.Submit, func(time.Duration) { fn(i) })
		}
		return
	}
	next := 0
	arrive := func(time.Duration) {
		i := next
		next++
		fn(i)
	}
	for _, job := range jobs {
		eng.At(job.Submit, arrive)
	}
}

// RunBaseline executes the same workload on a single traditional platform
// (THadoop or RHadoop in §V) under the given slot-sharing policy and
// returns per-job results in mapreduce.ByArrival order. It is
// RunBaselineChecked with no faults, injection, watchdog or invariant
// checker.
func RunBaseline(p *mapreduce.Platform, jobs []workload.Job, policy mapreduce.Policy) []mapreduce.Result {
	rs, err := RunBaselineChecked(p, jobs, policy, nil, Inject{}, nil, sweep.Budget{}, nil)
	if err != nil {
		panic(err)
	}
	return rs
}
