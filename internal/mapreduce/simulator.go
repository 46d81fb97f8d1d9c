package mapreduce

import (
	"cmp"
	"fmt"
	"strings"
	"time"

	"hybridmr/internal/faults"
	"hybridmr/internal/obs"
	"hybridmr/internal/simclock"
	"hybridmr/internal/stats"
)

// Policy selects how a cluster's slots are shared among concurrent jobs.
type Policy int

const (
	// FIFO serves tasks in job-arrival order — Hadoop 1.x's default
	// JobQueueTaskScheduler. The paper's isolated measurements (§III)
	// are policy-independent; FIFO matters only under concurrency.
	FIFO Policy = iota
	// Fair shares slots max-min across runnable jobs, like the Fair
	// Scheduler Facebook ran in production (the paper cites it as [4]).
	// The §V trace experiment uses it: it is what keeps small jobs
	// responsive on THadoop while large jobs starve — exactly the
	// asymmetry Fig. 10 shows.
	Fair
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case Fair:
		return "fair"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// taskKind indexes the per-kind state on Simulator (slotPool), jobRun
// (kindRun), plan.task and attempt.kind.
const (
	kMap = iota
	kRed
	nKinds
)

// kindName names a task kind in traces and failure messages.
var kindName = [nKinds]string{kMap: "map", kRed: "reduce"}

// slotPool is one task kind's share of the cluster: its free and total
// slots, the slots each live machine contributes (a crash or recovery moves
// that many per machine), the kind's pending tasks across active jobs, and
// the ready set its free slots are granted from.
type slotPool struct {
	free, cap  int
	perMachine int
	queued     int
	ready      readySet
}

// Simulator runs an arriving workload of jobs on one platform, sharing its
// map and reduce slot pools among concurrent jobs under the configured
// scheduling policy. Task durations come from the platform's cost model;
// queueing (the effect the paper blames for THadoop's poor performance in
// §V) emerges from the slot accounting.
//
// A simulator is pooled across replays (replaystate.go): recycle() rebuilds
// it as one value that names only the storage it keeps, and init() sets the
// non-zero defaults, so a field added later starts from zero on every reuse
// without being listed anywhere.
type Simulator struct {
	platform *Platform
	eng      *simclock.Engine

	// slots holds each task kind's slot pool and ready set. The ready set
	// indexes the jobs a free slot can go to — the former pickMap/pickReduce
	// linear scans over every active job, made incremental: FIFO keeps an
	// intrusive arrival-ordered list (O(1) pick), Fair a heap of stored
	// (running tasks, arrival) keys with a deferred decrease-key, updated
	// as tasks start and finish.
	slots     [nKinds]slotPool
	setupMaps int       // map tasks of jobs still in their setup phase
	active    []*jobRun // jobs with pending or running tasks (swap-remove via activeIdx)
	running   int
	seq       int

	// Failure injection (Hadoop re-executes failed tasks, up to
	// Cal.MaxTaskAttempts, mirroring mapred.map.max.attempts).
	failureRate float64
	failRNG     *stats.RNG

	// Straggler injection: per-attempt duration jitter, plus optional
	// speculative execution (Hadoop launches a backup attempt for slow
	// tasks and takes whichever finishes first).
	jitterFrac  float64
	speculative bool
	jitterRNG   *stats.RNG
	jitterVar   stats.LogUniformVar

	// Fault injection (faultsim.go): current machine/storage losses, the
	// memoized degraded platform views jobs are planned against, and the
	// in-flight attempts a crash can kill (swap-remove via attempt.idx,
	// recycled through attemptFree).
	machinesDown int
	storageDown  int
	degraded     map[viewLevel]*Platform
	inflight     []*attempt
	attemptSeq   uint64
	attemptFree  []*attempt

	// Per-replay task storage, emptied by recycle(), so no job run keeps
	// storage sized to the largest job it ever served. taskSlab holds every
	// job's task-ID stacks (jobRun.req and jobRun.ledger, see taskStack);
	// popped slots chain into the slabFree list and are reused. The
	// map-output ledger is kept only when the fault schedule can crash a
	// machine (keepLedger, set by scheduleFaults): nothing else reads it.
	// taskFailures counts failed attempts per (run, task) against
	// Cal.MaxTaskAttempts.
	taskSlab     []taskEntry
	slabFree     int32
	keepLedger   bool
	taskFailures map[taskKey]int

	// jobFree recycles jobRun records: a completed (or fully drained
	// failed) job's run returns here and the next arrival reuses it, so
	// steady-state job traffic allocates no per-job state (replaystate.go).
	// It deliberately survives recycle(): pooled runs are engine-agnostic
	// (recycleJob zeroes them) and keeping them warm is the whole point.
	jobFree []*jobRun

	// Arrival queue: monotone submissions ride one shared event instead of
	// a per-job closure. Queued arrivals fire in (at, seq) order, which is
	// exactly queue order, so nextArrival pops arrivals[arriveNext]; a job
	// submitted out of order (behind lastQueued) falls back to a closure.
	arrivals   []Job
	arriveNext int
	// arriveFn is the bound nextArrival method, created once in
	// newSimulator and engine-independent, so it survives recycle().
	arriveFn   simclock.Event
	lastQueued time.Duration

	// Gray degradation (graysim.go): the per-stream attempt-level slowdown
	// weights (1 = clean), the planning-level network factors, whether
	// speculative clones are enabled, and how many clones started and how
	// many finished before their original.
	cpuSlow, diskSlow float64
	nicSlow, rackSlow float64
	clone             bool
	clonesStarted     int
	clonesWon         int

	// onResult receives every finished job's result with its completion
	// instant: the sink ReplayState.Simulator was given, and the only way
	// results leave the simulator.
	onResult func(Result, time.Duration)

	// obsv holds the observability sinks (observe.go); the zero value is
	// inert and keeps the hot path allocation-free.
	obsv simObs

	// inv holds the invariant layer (invariants.go); the zero value is
	// detached and the hook sites cost one nil compare.
	inv invState
}

// Config is everything a simulator is built with: the paper's clusters are
// configured once, at start-up, and then only receive jobs. The zero value
// is a clean FIFO simulator with observation, invariant checking, injection,
// clones and faults all off.
type Config struct {
	// Policy selects the slot-sharing policy.
	Policy Policy
	// Trace and Metrics attach a span tracer and a metrics registry; either
	// may be nil (observe.go).
	Trace   *obs.Tracer
	Metrics *obs.Registry
	// Invariants attaches an invariant checker (invariants.go); nil
	// detaches.
	Invariants *InvariantChecker
	// Inject adds task-level failures and stragglers.
	Inject Inject
	// Clone enables speculative clone attempts (graysim.go): whenever a
	// gray window opens and the cluster's attempt slowdown reaches
	// cloneThreshold, in-flight attempts are cloned onto free slots at
	// healthy speed, and the first finisher wins.
	Clone bool
	// Faults is the fault timeline, validated against the platform and
	// scheduled before any job can arrive (faultsim.go).
	Faults []faults.Event
}

// Inject bundles the task-level chaos knobs, so the CLI and the resilience
// experiments configure both halves of the hybrid and the baselines
// identically.
type Inject struct {
	// FailureRate makes each task attempt fail with this probability; a
	// failed attempt occupies its slot for the full task duration and is
	// then re-executed, up to the calibration's MaxTaskAttempts (Hadoop 1.x
	// defaults to four), after which the whole job fails. 0 disables.
	FailureRate float64
	// StragglerFrac gives every task attempt a log-uniform duration jitter
	// in [1/(1+frac), 1+frac] (mean-preserving in log space). 0 disables.
	StragglerFrac float64
	// Speculate runs attempts jittered beyond the speculation threshold at
	// the backup's typical speed instead, modelling Hadoop's speculative
	// execution (a backup attempt starts once the original looks slow, and
	// the faster of the two wins).
	Speculate bool
	// Seed seeds the failure draws; stragglers draw from Seed+1, so the two
	// streams stay independent.
	Seed int64
}

// newSimulator allocates an unbound simulator shell; init binds it. Outside
// tests, ReplayState.Simulator is its only caller.
func newSimulator() *Simulator {
	s := &Simulator{}
	s.arriveFn = s.nextArrival
	return s
}

// init binds a new or recycled simulator to an engine, platform and result
// sink, sets the non-zero defaults (full slot pools, clean 1× slowdown
// weights) and applies cfg: policy, observers and invariant checker, then
// injection, clones and faults, validating injection and faults. Every
// other field starts from zero. Several simulators may share one engine
// (the hybrid's scale-up and scale-out halves share one simulated clock
// while keeping separate slot pools). A failed step has scheduled nothing
// on the engine.
func (s *Simulator) init(eng *simclock.Engine, p *Platform, cfg Config, onResult func(Result, time.Duration)) error {
	s.platform, s.eng, s.onResult = p, eng, onResult
	perMachine := [nKinds]int{kMap: p.Spec.MapSlotsPerMachine(), kRed: p.Spec.ReduceSlotsPerMachine()}
	for k := range nKinds {
		sp := &s.slots[k]
		sp.perMachine = perMachine[k]
		sp.free = p.Spec.Machines * sp.perMachine
		sp.cap = sp.free
		sp.ready.kind, sp.ready.policy = k, cfg.Policy
	}
	s.cpuSlow, s.diskSlow, s.nicSlow, s.rackSlow = 1, 1, 1, 1
	s.observe(cfg.Trace, cfg.Metrics)
	s.inv = invState{checker: cfg.Invariants}
	if err := s.inject(cfg.Inject); err != nil {
		return err
	}
	s.clone = cfg.Clone
	return s.scheduleFaults(cfg.Faults)
}

// inject validates and applies the failure and straggler knobs. A zero
// knob is skipped, so a clean simulator builds no RNG.
func (s *Simulator) inject(in Inject) error {
	if rate := in.FailureRate; rate != 0 {
		if rate < 0 || rate >= 1 {
			return fmt.Errorf("mapreduce: failure rate %v outside [0,1)", rate)
		}
		s.failureRate = rate
		s.failRNG = stats.NewRNG(in.Seed)
	}
	if frac := in.StragglerFrac; frac != 0 {
		if frac < 0 || frac > 10 {
			return fmt.Errorf("mapreduce: straggler fraction %v outside [0,10]", frac)
		}
		s.jitterFrac = frac
		s.speculative = in.Speculate
		s.jitterRNG = stats.NewRNG(in.Seed + 1)
		s.jitterVar = stats.NewLogUniformVar(1/(1+frac), 1+frac)
	}
	return nil
}

// attemptFails draws one failure decision.
func (s *Simulator) attemptFails() bool {
	return s.failureRate > 0 && s.failRNG.Float64() < s.failureRate
}

// jitterDuration applies the straggler model to one attempt's duration.
func (s *Simulator) jitterDuration(d time.Duration) time.Duration {
	if s.jitterFrac <= 0 {
		return d
	}
	f := s.jitterVar.Sample(s.jitterRNG)
	if s.speculative {
		// A backup attempt caps how slow the task can effectively
		// be: once the original exceeds SpeculationCap× the typical
		// duration, the speculative copy (jitter-free, started late)
		// finishes at about that bound.
		if cap := s.platform.Cal.SpeculationCap; f > cap {
			f = cap
		}
	}
	return time.Duration(float64(d) * f)
}

// Submit schedules a job at its Submit time, which must not precede the
// engine's clock.
func (s *Simulator) Submit(job Job) {
	s.running++
	if s.inv.checker != nil {
		s.inv.submitted++
	}
	if job.Submit >= s.lastQueued {
		// Monotone arrival (the common case: traces are sorted by Submit
		// and SubmitNow tracks the advancing clock): enqueue the job and
		// schedule the shared arrival event — no per-job closure. Queued
		// events fire in (at, seq) FIFO order, which equals queue order,
		// so the i-th firing starts the i-th queued job; a closure-path
		// job interleaving at the same instant keeps its own seq slot,
		// leaving the relative order identical to per-job closures.
		s.lastQueued = job.Submit
		s.arrivals = append(s.arrivals, job)
		s.eng.At(job.Submit, s.arriveFn)
		return
	}
	// Out-of-order submission (tests and ad-hoc drivers only; trace replays
	// arrive sorted and take the shared-event path above).
	s.eng.At(job.Submit, func(now time.Duration) { s.startJob(job, now) })
}

// nextArrival is the shared arrival event: it pops the next queued job and
// starts it. The vacated slot is cleared so the job's strings are released,
// and the queue rewinds to reuse its capacity once drained.
func (s *Simulator) nextArrival(now time.Duration) {
	job := s.arrivals[s.arriveNext]
	s.arrivals[s.arriveNext] = Job{}
	s.arriveNext++
	if s.arriveNext == len(s.arrivals) {
		s.arrivals = s.arrivals[:0]
		s.arriveNext = 0
	}
	s.startJob(job, now)
}

// SubmitNow schedules a job at the current simulated time, for use from
// inside another event (the hybrid scheduler decides at arrival time).
func (s *Simulator) SubmitNow(job Job) {
	job.Submit = s.eng.Now()
	s.Submit(job)
}

// ByArrival orders results by submission time, ties by job ID — the order
// the replay entry points sort sink-collected results into. With unique job
// IDs the order is total.
func ByArrival(a, b Result) int {
	if a.Submit != b.Submit {
		return cmp.Compare(a.Submit, b.Submit)
	}
	return strings.Compare(a.Job.ID, b.Job.ID)
}

// MapQueueDepth reports map tasks waiting for a slot right now, including
// tasks of jobs still in their setup phase; the load balancer extension
// uses it. O(1): the counts are maintained incrementally.
func (s *Simulator) MapQueueDepth() int { return s.setupMaps + s.slots[kMap].queued }

// MapSlotCapacity reports the cluster's total map slots.
func (s *Simulator) MapSlotCapacity() int { return s.slots[kMap].cap }

// jobRun tracks one in-flight job. Runs are pooled: completeJob (and the
// last attempt drain of a failed job) returns the record to the simulator's
// freelist, and the next arrival reuses it, so steady-state job traffic
// allocates nothing per job. recycleJob rebuilds the record as one value
// that keeps only the once-per-object bound events, so every other field
// starts from zero; newJobRun then sets the job's identity.
type jobRun struct {
	// What every slot grant and completion reads comes first, so it shares
	// the record's first cache lines.
	sim        *Simulator
	seq        int // submission order, for FIFO and tie-breaks
	failed     bool
	startedMap bool
	kinds      [nKinds]kindRun
	pl         plan

	job    Job
	submit time.Duration
	start  time.Duration

	// ledger is the map-output ledger: the job's completed maps, newest on
	// top, re-queued when a crash loses their outputs. It stays empty on a
	// simulator that cannot crash.
	ledger    taskStack
	shuffling bool
	retries   int

	firstMapAt  time.Duration
	lastMapDone time.Duration
	shuffleDone time.Duration

	// setupFn and shuffleFn are the bound setupDone/shuffleFire methods,
	// created once per jobRun object and reused across recycles, so a job
	// start and a map-phase end schedule their follow-ups without
	// allocating a closure (the same trick attempt.fireFn uses).
	setupFn   simclock.Event
	shuffleFn simclock.Event

	// activeIdx is the job's position in Simulator.active.
	activeIdx int
}

// kindRun is one job's bookkeeping for one task kind.
//
// Pending tasks: the former pendingMapIDs/pendingRedIDs slices held
// [base, base+n) and popped from the end; the counter representation
// reproduces that order with no per-job allocation. The initial IDs not yet
// issued are [lo, hi), issued from hi down, and re-queued IDs (crash kills,
// injected failures, lost map outputs) pop LIFO from req first — exactly
// the old end-pop order. Map IDs are [0, mapTasks), reduce IDs follow them.
//
// running counts the kind's in-flight attempts (clones included) and done
// its completed tasks. The rest links the job into the kind's ready set:
// next/prev/inList are the FIFO list's intrusive pointers, heapPos is the
// Fair heap's position+1 (0 = absent).
type kindRun struct {
	lo, hi     int
	req        taskStack
	running    int
	done       int
	next, prev *jobRun
	inList     bool
	heapPos    int
}

// pendingLen returns the job's pending-task count of one kind.
func (r *jobRun) pendingLen(kind int) int {
	k := &r.kinds[kind]
	return k.hi - k.lo + int(k.req.n)
}

// popTask issues the next pending task ID of one kind: re-queued IDs first
// (LIFO), then the initial range counting down — byte-identical to popping
// the former pending-ID slice from the end.
func (r *jobRun) popTask(kind int) int {
	k := &r.kinds[kind]
	if k.req.n > 0 {
		return r.sim.stackPop(&k.req)
	}
	k.hi--
	return k.hi
}

// taskStack is a LIFO of task IDs threaded through the simulator's taskSlab:
// top is the newest entry's slab index+1 (0 = empty) and n the entry count.
// The zero value is an empty stack, so a job run holds no storage of its own.
type taskStack struct{ top, n int32 }

// taskEntry is one taskSlab slot: a task ID and the next-older entry of its
// stack (slab index+1, 0 = bottom). A free slot links the free list the same
// way. Task IDs fit int32 because planJob bounds mapTasks+reducers.
type taskEntry struct{ id, prev int32 }

// stackPush pushes a task ID, reusing a freed slab slot when there is one.
func (s *Simulator) stackPush(st *taskStack, id int) {
	i := s.slabFree
	if i != 0 {
		s.slabFree = s.taskSlab[i-1].prev
		s.taskSlab[i-1] = taskEntry{int32(id), st.top}
	} else {
		s.taskSlab = append(s.taskSlab, taskEntry{int32(id), st.top})
		i = int32(len(s.taskSlab))
	}
	st.top = i
	st.n++
}

// stackPop pops a non-empty stack's newest task ID and frees its slot.
func (s *Simulator) stackPop(st *taskStack) int {
	i := st.top
	e := s.taskSlab[i-1]
	st.top = e.prev
	st.n--
	s.taskSlab[i-1].prev = s.slabFree
	s.slabFree = i
	return int(e.id)
}

// stackDrop empties a stack, freeing its slots.
func (s *Simulator) stackDrop(st *taskStack) {
	for st.n > 0 {
		s.stackPop(st)
	}
}

// newJobRun acquires a run record for a starting job, reusing a recycled one
// when the freelist has it. The bound setup/shuffle events are created once
// per object; everything else is (re)initialized here.
func (s *Simulator) newJobRun(job Job, pl plan) *jobRun {
	var run *jobRun
	if n := len(s.jobFree); n > 0 {
		run = s.jobFree[n-1]
		s.jobFree[n-1] = nil
		s.jobFree = s.jobFree[:n-1]
	} else {
		run = &jobRun{activeIdx: -1}
		run.setupFn = run.setupDone
		run.shuffleFn = run.shuffleFire
	}
	s.seq++
	run.sim, run.job, run.pl, run.seq, run.submit = s, job, pl, s.seq, job.Submit
	return run
}

// recycleJob returns a drained run to the freelist. Only completeJob and
// retireFailed may call it: at those points no attempt, ready set, active
// slot or pending engine event references the run (killed and superseded
// attempts draining stale timers keep the pointer but never dereference it).
func (s *Simulator) recycleJob(run *jobRun) {
	// The re-queue stacks are empty here unless recycle() is reclaiming an
	// abandoned replay's run; the ledger still holds the job's map outputs.
	for k := range nKinds {
		s.stackDrop(&run.kinds[k].req)
	}
	s.stackDrop(&run.ledger)
	*run = jobRun{setupFn: run.setupFn, shuffleFn: run.shuffleFn, activeIdx: -1}
	s.jobFree = append(s.jobFree, run)
}

// retireFailed recycles a failed job's run once its last in-flight attempt
// has drained. The running counts are exactly the attempts (clones
// included) still referencing the run, so zero means no live reference
// remains; failJob emptied the pending sets and removed the active slot.
func (s *Simulator) retireFailed(run *jobRun) {
	if run.failed && run.kinds[kMap].running == 0 && run.kinds[kRed].running == 0 {
		s.recycleJob(run)
	}
}

// readySet indexes the active jobs holding pending tasks of one kind — the
// incremental replacement for scanning every active job per slot grant.
//
// Under FIFO the set is an intrusive doubly-linked list kept in ascending
// submission order: pick is the head in O(1), and insertion is O(1) in the
// fault-free steady state (jobs become runnable in arrival order, so they
// append at the tail); only a fault/failure re-queue of an old job walks
// from the head. A heap keyed on seq alone picks the same jobs, but its
// root removals cost burst-queue 6% (DESIGN §7).
//
// Under Fair it is a 4-ary min-heap of fairEntry slots, each carrying its
// job's key running<<fairRunShift | seq inline, so a sift compares
// contiguous integers instead of chasing jobRun pointers; kindRun.heapPos is
// the back-pointer. A key that drops (a task of a heap job finished or was
// killed) is not sifted: the job becomes the one held job, its true key in
// heldKey and its stored key left stale-high, so the heap stays valid on
// stored keys and pick returns the smaller of the root and the held job. In
// the common case the freed slot goes straight back to the held job, whose
// key returns to the stored value with nothing moved; a second job's
// decrease first flushes the held one (sifts it up to its true key), and an
// increase or removal of the held job clears it.
//
// Both policies pick exactly the job the former pickMap/pickReduce scans
// chose: the key orders are total (seq is unique), so the minimum is unique
// and replay output is byte-identical.
type readySet struct {
	policy     Policy
	kind       int
	head, tail *jobRun     // FIFO list
	heap       []fairEntry // Fair heap, on stored keys
	held       *jobRun     // Fair: the heap job whose key dropped below its stored key, or nil
	heldKey    uint64      // held's true key
}

// fairEntry is one Fair heap slot: a job and its stored key.
type fairEntry struct {
	key uint64
	run *jobRun
}

// fairRunShift places the running-task count above the submission seq in a
// Fair key; 2^40 submissions per simulator is far beyond any replay.
const fairRunShift = 40

// fairArity is the Fair heap's fan-out: a 4-ary heap halves the depth of a
// binary one, and a sift-down level scans four adjacent child slots.
const fairArity = 4

// key returns the job's Fair key: fewest running tasks first (max-min
// fairness), oldest submission on ties.
func (rs *readySet) key(r *jobRun) uint64 {
	return uint64(r.kinds[rs.kind].running)<<fairRunShift | uint64(r.seq)
}

// pick returns the job the next free slot goes to, or nil.
func (rs *readySet) pick() *jobRun {
	if rs.policy == Fair {
		if len(rs.heap) == 0 {
			return nil
		}
		if rs.held != nil && rs.heldKey < rs.heap[0].key {
			return rs.held
		}
		return rs.heap[0].run
	}
	return rs.head
}

// set reconciles the job's membership: insert when it became ready, remove
// when it no longer is, re-key (Fair) when its key may have changed.
func (rs *readySet) set(r *jobRun, ready bool) {
	if rs.policy == Fair {
		i := r.kinds[rs.kind].heapPos - 1
		switch {
		case ready && i < 0:
			rs.heapPush(r)
		case ready:
			rs.heapRekey(r, i)
		case i >= 0:
			rs.heapRemove(r, i)
		}
		return
	}
	in := r.kinds[rs.kind].inList
	switch {
	case ready && !in:
		rs.listInsert(r)
	case !ready && in:
		rs.listRemove(r)
	}
}

func (rs *readySet) listInsert(r *jobRun) {
	k := rs.kind
	rk := &r.kinds[k]
	rk.inList = true
	if rs.tail == nil {
		rk.prev, rk.next = nil, nil
		rs.head, rs.tail = r, r
		return
	}
	if r.seq > rs.tail.seq {
		rk.prev, rk.next = rs.tail, nil
		rs.tail.kinds[k].next = r
		rs.tail = r
		return
	}
	// Re-entry of an old job (fault or failure re-queue): it belongs near
	// the front, so walk from the head.
	n := rs.head
	for n.seq < r.seq {
		n = n.kinds[k].next
	}
	nk := &n.kinds[k]
	rk.prev, rk.next = nk.prev, n
	if nk.prev != nil {
		nk.prev.kinds[k].next = r
	} else {
		rs.head = r
	}
	nk.prev = r
}

func (rs *readySet) listRemove(r *jobRun) {
	k := rs.kind
	rk := &r.kinds[k]
	if rk.prev != nil {
		rk.prev.kinds[k].next = rk.next
	} else {
		rs.head = rk.next
	}
	if rk.next != nil {
		rk.next.kinds[k].prev = rk.prev
	} else {
		rs.tail = rk.prev
	}
	rk.prev, rk.next = nil, nil
	rk.inList = false
}

func (rs *readySet) heapPush(r *jobRun) {
	rs.heap = append(rs.heap, fairEntry{})
	rs.heapUp(len(rs.heap)-1, fairEntry{rs.key(r), r})
}

// heapRekey re-positions heap job r (at index i) after its key may have
// changed. A decrease is deferred by holding r; an increase sifts down.
func (rs *readySet) heapRekey(r *jobRun, i int) {
	key, stored := rs.key(r), rs.heap[i].key
	if key < stored {
		if rs.held != nil && rs.held != r {
			rs.heapFlush()
		}
		rs.held, rs.heldKey = r, key
		return
	}
	if rs.held == r {
		rs.held = nil
	}
	if key > stored {
		rs.heapDown(i, fairEntry{key, r})
	}
}

// heapFlush sifts the held job up to its true key and clears the hold.
func (rs *readySet) heapFlush() {
	r := rs.held
	rs.held = nil
	rs.heapUp(r.kinds[rs.kind].heapPos-1, fairEntry{rs.heldKey, r})
}

// heapUp places e at or above hole i, moving larger parents down into it.
func (rs *readySet) heapUp(i int, e fairEntry) {
	h, k := rs.heap, rs.kind
	for i > 0 {
		p := (i - 1) / fairArity
		if h[p].key < e.key {
			break
		}
		h[i] = h[p]
		h[i].run.kinds[k].heapPos = i + 1
		i = p
	}
	h[i] = e
	e.run.kinds[k].heapPos = i + 1
}

// heapDown places e at or below hole i, moving smaller children up into it.
func (rs *readySet) heapDown(i int, e fairEntry) {
	h, k := rs.heap, rs.kind
	n := len(h)
	for {
		first := i*fairArity + 1
		if first >= n {
			break
		}
		end := min(first+fairArity, n)
		best, bk := first, h[first].key
		for c := first + 1; c < end; c++ {
			if h[c].key < bk {
				best, bk = c, h[c].key
			}
		}
		if bk > e.key {
			break
		}
		h[i] = h[best]
		h[i].run.kinds[k].heapPos = i + 1
		i = best
	}
	h[i] = e
	e.run.kinds[k].heapPos = i + 1
}

// heapRemove drops heap job r (at index i): the last slot refills the hole
// and sifts whichever way its stored key needs.
func (rs *readySet) heapRemove(r *jobRun, i int) {
	if rs.held == r {
		rs.held = nil
	}
	last := len(rs.heap) - 1
	e := rs.heap[last]
	rs.heap[last] = fairEntry{}
	rs.heap = rs.heap[:last]
	r.kinds[rs.kind].heapPos = 0
	if i == last {
		return
	}
	if i > 0 && e.key < rs.heap[(i-1)/fairArity].key {
		rs.heapUp(i, e)
	} else {
		rs.heapDown(i, e)
	}
}

// touch reconciles the job's ready-set state after any change to its
// pending or running task counts of one kind. Every mutation site calls it;
// keeping the rule that blunt keeps the index impossible to desynchronize.
func (s *Simulator) touch(kind int, run *jobRun) {
	s.slots[kind].ready.set(run, !run.failed && run.pendingLen(kind) > 0)
}

// removeActive drops a finished or failed job from the active list in O(1).
func (s *Simulator) removeActive(run *jobRun) {
	i := run.activeIdx
	last := len(s.active) - 1
	s.active[i] = s.active[last]
	s.active[i].activeIdx = i
	s.active[last] = nil
	s.active = s.active[:last]
	run.activeIdx = -1
}

func (s *Simulator) startJob(job Job, now time.Duration) {
	// Plan against the platform as degraded right now: a job arriving with
	// machines or storage down gets slower tasks, narrower waves and the
	// degraded capacity check.
	p, err := s.PlatformNow()
	var pl plan
	if err == nil {
		pl, err = p.planJob(job)
	}
	if err != nil {
		s.traceJobRejected(job, now, err)
		s.finish(Result{Job: job, Platform: s.platform.Name, Submit: job.Submit, Err: err}, now)
		return
	}
	run := s.newJobRun(job, pl)
	// Job setup (staging, setup task) precedes the first map launch; the
	// bound setupFn is the run's own, so scheduling it allocates nothing.
	s.setupMaps += pl.mapTasks
	s.eng.After(pl.overhead, run.setupFn)
}

// setupDone ends the job's setup phase: its map tasks become pending and the
// job joins the active set. Bound once per jobRun as setupFn.
func (r *jobRun) setupDone(now time.Duration) {
	s := r.sim
	s.setupMaps -= r.pl.mapTasks
	r.start = now
	s.obsv.trace.Span(s.obsv.track, r.job.ID, "setup", r.submit, now)
	r.kinds[kMap].hi = r.pl.mapTasks
	s.slots[kMap].queued += r.pl.mapTasks
	r.activeIdx = len(s.active)
	s.active = append(s.active, r)
	s.touch(kMap, r)
	s.dispatch(now)
}

// shuffleFire ends the shuffle phase: the reduce tasks become pending. Bound
// once per jobRun as shuffleFn; it fires exactly once per job lifecycle —
// the map done count cannot regress during the shuffle window
// (loseCompletedMaps skips jobs already past their map phase), so the event
// is never double-armed.
func (r *jobRun) shuffleFire(now time.Duration) {
	s := r.sim
	r.shuffling = false
	r.shuffleDone = now
	s.obsv.trace.Span(s.obsv.track, r.job.ID, "shuffle", r.lastMapDone, now)
	// Reduce task ids follow the map ids.
	k := &r.kinds[kRed]
	k.lo, k.hi = r.pl.mapTasks, r.pl.mapTasks+r.pl.reducers
	s.slots[kRed].queued += r.pl.reducers
	s.touch(kRed, r)
	s.dispatch(now)
}

// dispatch hands out free slots, maps first, until none remain or nothing
// is runnable.
func (s *Simulator) dispatch(now time.Duration) {
	s.noteSlots() // queue depth peaks before slots are granted
	for kind := range nKinds {
		sp := &s.slots[kind]
		for sp.free > 0 {
			run := sp.ready.pick()
			if run == nil {
				break
			}
			s.startTask(kind, run, now)
		}
	}
	s.noteSlots() // busy slots peak after the grants
	if s.inv.checker != nil {
		s.invSlots()
	}
}

// startTask grants a free slot of one kind to the job's next pending task.
func (s *Simulator) startTask(kind int, run *jobRun, now time.Duration) {
	sp := &s.slots[kind]
	sp.free--
	sp.queued--
	taskID := run.popTask(kind)
	run.kinds[kind].running++
	s.obsv.started[kind].Inc()
	s.touch(kind, run)
	if kind == kMap && !run.startedMap {
		run.startedMap = true
		run.firstMapAt = now
	}
	att := s.addAttempt(run, taskID, kind)
	s.armAttempt(att, s.jitterDuration(run.pl.task[kind]), now)
}

// requeue puts a task back on its job's pending set after a failed or
// killed attempt.
func (s *Simulator) requeue(kind int, run *jobRun, taskID int, now time.Duration, cause string) {
	s.stackPush(&run.kinds[kind].req, taskID)
	s.slots[kind].queued++
	run.retries++
	s.traceRetry(run, taskID, kind, now, cause)
}

// taskDone is an attempt's completion: the slot frees, and the task either
// re-queues (injected failure under the attempt budget), fails the job, or
// counts toward its phase. The map phase's end schedules the shuffle; the
// reduce phase's end completes the job.
func (s *Simulator) taskDone(kind int, run *jobRun, taskID int, now time.Duration) {
	s.slots[kind].free++
	k := &run.kinds[kind]
	k.running--
	if s.attemptFails() && !run.failed {
		if s.recordFailure(run, taskID) {
			// Re-execute: the task goes back to pending.
			s.requeue(kind, run, taskID, now, "failed")
			s.touch(kind, run)
			s.dispatch(now)
			return
		}
		s.failJob(run, now, kindName[kind])
		s.dispatch(now)
		return
	}
	if run.failed {
		s.touch(kind, run)
		s.retireFailed(run)
		s.dispatch(now)
		return
	}
	k.done++
	if kind == kMap && s.keepLedger {
		s.stackPush(&run.ledger, taskID)
	}
	s.touch(kind, run)
	switch {
	case kind == kMap && k.done == run.pl.mapTasks:
		run.lastMapDone = now
		run.shuffling = true
		s.obsv.trace.Span(s.obsv.track, run.job.ID, "map", run.firstMapAt, now)
		s.eng.After(run.pl.shuffle, run.shuffleFn)
	case kind == kRed && k.done == run.pl.reducers:
		s.completeJob(run, now)
	}
	s.dispatch(now)
}

// taskKey names one logical task of one job run within a replay: the run's
// submission seq is unique per simulator until recycle() resets it.
type taskKey struct{ seq, task int }

// recordFailure counts one failed attempt of a task and reports whether the
// task may retry.
func (s *Simulator) recordFailure(run *jobRun, taskID int) bool {
	if s.taskFailures == nil {
		s.taskFailures = make(map[taskKey]int)
	}
	k := taskKey{run.seq, taskID}
	n := s.taskFailures[k] + 1
	s.taskFailures[k] = n
	if s.inv.checker != nil && n > s.platform.Cal.MaxTaskAttempts {
		s.inv.checker.Violate("task-attempts", "%s: job %s task %d reached %d failed attempts, budget %d",
			s.platform.Name, run.job.ID, taskID, n, s.platform.Cal.MaxTaskAttempts)
	}
	return n < s.platform.Cal.MaxTaskAttempts
}

// failJob marks the job failed; its remaining tasks are dropped and the
// result carries the error, like a JobTracker-reported task failure.
func (s *Simulator) failJob(run *jobRun, now time.Duration, phase string) {
	if run.failed {
		return
	}
	run.failed = true
	for kind := range nKinds {
		k := &run.kinds[kind]
		s.slots[kind].queued -= run.pendingLen(kind)
		k.hi = k.lo
		s.stackDrop(&k.req)
		s.touch(kind, run)
	}
	s.traceJobFailed(run, now, phase)
	s.removeActive(run)
	s.finish(Result{
		Job:      run.job,
		Platform: s.platform.Name,
		Submit:   run.submit,
		Start:    run.start,
		End:      now,
		Exec:     now - run.submit,
		Err:      fmt.Errorf("mapreduce: job %s: %s task exceeded %d attempts", run.job.ID, phase, s.platform.Cal.MaxTaskAttempts),
	}, now)
	s.retireFailed(run)
}

func (s *Simulator) completeJob(run *jobRun, end time.Duration) {
	if s.inv.checker != nil {
		s.invComplete(run, end)
	}
	s.traceJobDone(run, end)
	s.touch(kMap, run)
	s.touch(kRed, run)
	s.removeActive(run)
	s.finish(Result{
		Job:             run.job,
		Platform:        s.platform.Name,
		Submit:          run.submit,
		Start:           run.start,
		End:             end,
		Exec:            end - run.submit,
		MapPhase:        run.lastMapDone - run.firstMapAt,
		ShufflePhase:    run.shuffleDone - run.lastMapDone,
		ReducePhase:     end - run.shuffleDone,
		MapTasks:        run.pl.mapTasks,
		MapWaves:        run.pl.mapWaves,
		Reducers:        run.pl.reducers,
		Spilled:         run.pl.spilled,
		ShuffleDegraded: run.pl.degraded,
		TaskRetries:     run.retries,
	}, end)
	s.recycleJob(run)
}

func (s *Simulator) finish(r Result, now time.Duration) {
	s.running--
	if s.inv.checker != nil {
		s.invFinish(r, now)
	}
	s.onResult(r, now)
}
