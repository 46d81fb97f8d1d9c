package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"hybridmr/internal/apps"
	"hybridmr/internal/faults"
	"hybridmr/internal/mapreduce"
	"hybridmr/internal/sweep"
	"hybridmr/internal/units"
	"hybridmr/internal/workload"
)

// testSim builds a simulator for p on st, as every replay does, and returns
// it with drain: drain runs st's engine to completion and returns the
// results the simulator's sink collected, in mapreduce.ByArrival order.
func testSim(st *mapreduce.ReplayState, p *mapreduce.Platform) (*mapreduce.Simulator, func() []mapreduce.Result) {
	var res []mapreduce.Result
	sim, err := st.Simulator(p, mapreduce.Config{}, func(r mapreduce.Result, _ time.Duration) { res = append(res, r) })
	if err != nil {
		panic(err) // the zero Config always builds
	}
	return sim, func() []mapreduce.Result {
		st.Engine().Run()
		slices.SortFunc(res, mapreduce.ByArrival)
		return res
	}
}

// upHeavyJobs builds a stream of identical 8 GB wordcount jobs — shuffle
// ratio 1.6 ≥ the high cross point's, size under 32 GB, so Algorithm 1 routes
// every one to the scale-up half — arriving every 30 s.
func upHeavyJobs(n int) []workload.Job {
	jobs := make([]workload.Job, n)
	for i := range jobs {
		jobs[i] = workload.Job{
			ID:         fmt.Sprintf("j%02d", i),
			App:        apps.Wordcount(),
			Input:      8 * units.GB,
			Submit:     time.Duration(i) * 30 * time.Second,
			RatioKnown: true,
		}
	}
	return jobs
}

// upCrash degrades the scale-up half: one of its two machines crashes early
// and stays down past the whole arrival window.
func upCrash(t *testing.T) *faults.Schedule {
	t.Helper()
	s, err := faults.NewSchedule([]faults.Event{
		{At: 5 * time.Minute, Kind: faults.MachineCrash, Cluster: faults.ClusterUp, Count: 1},
		{At: 12 * time.Hour, Kind: faults.MachineRecover, Cluster: faults.ClusterUp, Count: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func meanExec(rs []JobResult) time.Duration {
	var sum time.Duration
	n := 0
	for _, r := range rs {
		if r.Err == nil {
			sum += r.Exec
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// FailureAware on a healthy cluster changes nothing: a healthy preferred
// half is never second-guessed, so the failure-aware replay matches the
// clean static replay (FaultRun{}, what Run executes) job for job, and no
// job is rerouted or retried.
func TestRunFaultedFailureAwareHealthyMatchesStatic(t *testing.T) {
	h := newHybridT(t)
	cfg := workload.DefaultConfig()
	cfg.Jobs = 400
	cfg.Duration = time.Duration(float64(24*time.Hour) * 400 / 6000)
	jobs, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := h.RunFaulted(jobs, FaultRun{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.RunFaulted(jobs, FaultRun{FailureAware: true, Runner: sweep.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) != len(jobs) {
		t.Fatalf("%d failure-aware results, %d static, want %d", len(got), len(want), len(jobs))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Job.ID != w.Job.ID || g.Exec != w.Exec || g.End != w.End ||
			g.Submit != w.Submit || g.Platform != w.Platform ||
			g.Target != w.Target || g.Diverted != w.Diverted ||
			(g.Err == nil) != (w.Err == nil) {
			t.Fatalf("job %s diverged: got %+v want %+v", w.Job.ID, g, w)
		}
		if g.Rerouted {
			t.Errorf("job %s rerouted on a healthy cluster", g.Job.ID)
		}
		if g.Attempts != 1 || w.Attempts != 1 {
			t.Errorf("job %s: %d failure-aware / %d static attempts, want 1", g.Job.ID, g.Attempts, w.Attempts)
		}
	}
}

// The replay entry points hand back results the caller owns: a later replay
// that reuses the same pooled state (sequential replays draw the state the
// previous one released) and overwrites its buffers leaves earlier results
// untouched.
func TestReplayResultsSurvivePoolReuse(t *testing.T) {
	h := newHybridT(t)
	th, err := mapreduce.NewTHadoop(mapreduce.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	jobs := upHeavyJobs(30)
	hy, err := h.RunFaulted(jobs, FaultRun{Schedule: upCrash(t), FailureAware: true, Runner: sweep.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	bl, err := RunBaselineChecked(th, jobs, mapreduce.Fair, nil, Inject{}, nil, sweep.Budget{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	hySnap, blSnap := slices.Clone(hy), slices.Clone(bl)

	other := upHeavyJobs(45)
	for i := range other {
		other[i].ID = "other-" + other[i].ID
		other[i].Input = 2 * units.GB
	}
	inj := Inject{FailureRate: 0.05, StragglerFrac: 0.2, Seed: 3}
	if _, err := h.RunFaulted(other, FaultRun{Inject: inj}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunBaselineChecked(th, other, mapreduce.FIFO, nil, inj, nil, sweep.Budget{}, nil); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hy, hySnap) {
		t.Error("RunFaulted results changed after a later replay reused the pooled state")
	}
	if !reflect.DeepEqual(bl, blSnap) {
		t.Error("RunBaselineChecked results changed after a later replay reused the pooled state")
	}
}

// The acceptance scenario: under a schedule that halves the scale-up
// cluster, the failure-aware scheduler strictly beats static Algorithm 1 by
// rerouting queued-up jobs to the healthy scale-out half.
func TestFailureAwareBeatsStatic(t *testing.T) {
	h := newHybridT(t)
	jobs := upHeavyJobs(40)
	sched := upCrash(t)

	static, err := h.RunFaulted(jobs, FaultRun{Schedule: sched})
	if err != nil {
		t.Fatal(err)
	}
	aware, err := h.RunFaulted(jobs, FaultRun{Schedule: sched, FailureAware: true, Runner: sweep.New(1)})
	if err != nil {
		t.Fatal(err)
	}

	rerouted := 0
	for _, r := range aware {
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.Job.ID, r.Err)
		}
		if r.Rerouted {
			rerouted++
			if !r.Diverted {
				t.Errorf("job %s marked rerouted but not diverted from its target", r.Job.ID)
			}
		}
	}
	if rerouted == 0 {
		t.Fatal("no job rerouted off the degraded scale-up half")
	}
	if ms, ma := meanExec(static), meanExec(aware); ma >= ms {
		t.Errorf("failure-aware mean %v not strictly below static %v", ma, ms)
	}
}

// The same schedule and options replay byte-identically.
func TestRunFaultedDeterministic(t *testing.T) {
	h := newHybridT(t)
	jobs := upHeavyJobs(20)
	sched := upCrash(t)
	run := func() []JobResult {
		res, err := h.RunFaulted(jobs, FaultRun{Schedule: sched, FailureAware: true, Runner: sweep.New(1)})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Exec != b[i].Exec || a[i].Rerouted != b[i].Rerouted || a[i].Attempts != b[i].Attempts {
			t.Errorf("job %s diverged between identical replays", a[i].Job.ID)
		}
	}
}

// Under task-failure injection, the failure-aware run retries failed jobs
// (bounded attempts, backoff) and finishes at least as many as the static
// run, with some job visibly taking more than one attempt.
func TestRunFaultedRetries(t *testing.T) {
	h := newHybridT(t)
	cfg := workload.DefaultConfig()
	cfg.Jobs = 300
	cfg.Duration = time.Duration(float64(24*time.Hour) * 300 / 6000)
	jobs, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj := Inject{FailureRate: 0.45, Seed: 7}

	count := func(rs []JobResult) (ok, failed, retried int) {
		for _, r := range rs {
			if r.Err == nil {
				ok++
			} else {
				failed++
			}
			if r.Attempts > 1 {
				retried++
			}
		}
		return
	}
	static, err := h.RunFaulted(jobs, FaultRun{Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	aware, err := h.RunFaulted(jobs, FaultRun{Inject: inj, FailureAware: true, Runner: sweep.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	sOK, sFail, sRetried := count(static)
	aOK, aFail, aRetried := count(aware)
	if sFail == 0 {
		t.Fatal("static run had no failures — injection rate too low for the test")
	}
	if sRetried != 0 {
		t.Errorf("static run retried %d jobs; retries are failure-aware only", sRetried)
	}
	if aRetried == 0 {
		t.Error("failure-aware run never retried despite job failures")
	}
	if aOK < sOK {
		t.Errorf("failure-aware finished %d jobs, static %d — retries made it worse", aOK, sOK)
	}
	t.Logf("static %d ok / %d failed; aware %d ok / %d failed / %d retried",
		sOK, sFail, aOK, aFail, aRetried)
	for _, r := range aware {
		if r.Attempts > 3 {
			t.Errorf("job %s took %d attempts, cap is 3", r.Job.ID, r.Attempts)
		}
	}
}

// RunFaulted surfaces schedule and injection errors before simulating, using
// the simulator's own messages for the injection bounds.
func TestRunFaultedValidation(t *testing.T) {
	h := newHybridT(t)
	jobs := upHeavyJobs(1)

	kill, err := faults.NewSchedule([]faults.Event{
		{At: time.Hour, Kind: faults.MachineCrash, Cluster: faults.ClusterUp, Count: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.RunFaulted(jobs, FaultRun{Schedule: kill}); err == nil {
		t.Error("unsurvivable schedule accepted")
	}
	if _, err := h.RunFaulted(jobs, FaultRun{Inject: Inject{FailureRate: 1.5}}); err == nil {
		t.Error("failure rate 1.5 accepted")
	}
	if _, err := h.RunFaulted(jobs, FaultRun{Inject: Inject{StragglerFrac: -1}}); err == nil {
		t.Error("negative straggler fraction accepted")
	}
}

// An Inject is applied by the simulator constructor, and both replay
// families surface its error messages verbatim.
func TestInjectApplyUsesSimulatorErrors(t *testing.T) {
	p := mapreduce.MustArch(mapreduce.OutOFS, mapreduce.DefaultCalibration())
	inj := Inject{FailureRate: 1.5}
	_, want := mapreduce.NewReplayState().Simulator(p, mapreduce.Config{Inject: inj}, func(mapreduce.Result, time.Duration) {})
	if want == nil {
		t.Fatal("simulator accepted failure rate 1.5")
	}
	h, err := NewHybrid(mapreduce.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	jobs := upHeavyJobs(2)
	if _, got := h.RunFaulted(jobs, FaultRun{Inject: inj}); got == nil || got.Error() != want.Error() {
		t.Errorf("RunFaulted error %q != simulator error %q", got, want)
	}
	if _, got := RunBaselineChecked(p, jobs, mapreduce.Fair, nil, inj, nil, sweep.Budget{}, nil); got == nil || got.Error() != want.Error() {
		t.Errorf("RunBaselineChecked error %q != simulator error %q", got, want)
	}
}

// RunBaselineChecked replays the full event list on the undivided baseline
// and slows it down relative to the clean baseline.
func TestRunBaselineFaulted(t *testing.T) {
	p, err := mapreduce.NewTHadoop(mapreduce.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	jobs := upHeavyJobs(10)
	clean := RunBaseline(p, jobs, mapreduce.Fair)

	sched, err := faults.NewSchedule([]faults.Event{
		{At: time.Minute, Kind: faults.MachineCrash, Cluster: faults.ClusterOut, Count: 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := RunBaselineChecked(p, jobs, mapreduce.Fair, sched.ForBaseline(), Inject{}, nil, sweep.Budget{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var cleanSum, faultSum time.Duration
	for i := range clean {
		if clean[i].Err != nil || faulted[i].Err != nil {
			t.Fatalf("job %s: %v / %v", clean[i].Job.ID, clean[i].Err, faulted[i].Err)
		}
		cleanSum += clean[i].Exec
		faultSum += faulted[i].Exec
	}
	if faultSum <= cleanSum {
		t.Errorf("faulted baseline total %v not above clean %v", faultSum, cleanSum)
	}

	if _, err := RunBaselineChecked(p, jobs, mapreduce.Fair, nil, Inject{FailureRate: -1}, nil, sweep.Budget{}, nil); err == nil {
		t.Error("bad injection accepted")
	}
}
