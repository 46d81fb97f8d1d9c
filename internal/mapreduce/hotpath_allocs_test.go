package mapreduce

import (
	"testing"
	"time"

	"hybridmr/internal/apps"
	"hybridmr/internal/faults"
	"hybridmr/internal/units"
)

// These budgets are the simulator's zero-allocation contract. They pin the
// whole replay call graph at zero allocations per task once the pooled
// state is warm: dispatch, the ready-set ladder and task heaps, the job-run
// and attempt freelists, the arrival queue, jitter and failure draws,
// gray-window stretching and rescaling, and speculative clones. A path only
// one kind of replay runs needs a test that runs that kind of replay, which
// is why the clean, faulted and gray replays each have one; bench-check
// then gates the replay benchmarks' allocs/op at zero tolerance.

// warmReplayAllocs replays jobs twice on a pooled state to reach the
// freelists' high-water marks, then measures a steady-state replay: the
// simulator is built with cfg and one counting sink made outside the
// measurement, the jobs are submitted, and the engine drains. It fails
// unless every job reported in every replay.
func warmReplayAllocs(t *testing.T, cfg Config, jobs []Job) float64 {
	t.Helper()
	p := MustArch(OutOFS, DefaultCalibration())
	st := NewReplayState()
	var n int
	sink := func(Result, time.Duration) { n++ }
	replay := func() {
		st.Reset()
		n = 0
		sim, err := st.Simulator(p, cfg, sink)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			sim.Submit(j)
		}
		st.Engine().Run()
		if n != len(jobs) {
			t.Fatalf("replayed %d of %d jobs", n, len(jobs))
		}
	}
	replay()
	replay()
	return testing.AllocsPerRun(20, replay)
}

// TestPooledReplaySteadyStateAllocs pins the clean trace-replay path — job
// submission, arrival queue, dispatch, both ready sets, completion — at
// zero allocations on a warm ReplayState, under both policies.
func TestPooledReplaySteadyStateAllocs(t *testing.T) {
	jobs := make([]Job, 32)
	for i := range jobs {
		jobs[i] = Job{
			ID:     "j" + string(rune('a'+i%26)) + string(rune('a'+i/26)),
			App:    apps.Wordcount(),
			Input:  2 * units.GB,
			Submit: time.Duration(i) * 15 * time.Second,
		}
	}
	for _, p := range []Policy{FIFO, Fair} {
		if avg := warmReplayAllocs(t, Config{Policy: p}, jobs); avg != 0 {
			t.Errorf("%v: warm pooled replay: %v allocs/op, want 0", p, avg)
		}
	}
}

// TestFaultedReplaySteadyStateAllocs pins the failure/straggler machinery —
// attempt lifecycle, retry accounting, jitter draws, speculative restarts —
// at zero allocations on a warm state beyond the documented setup cost: the
// injection build step makes fresh RNGs per replay (recycle drops them so seeds
// cannot leak across replays), so the contract is measured as replay allocs
// == injection-setup allocs.
func TestFaultedReplaySteadyStateAllocs(t *testing.T) {
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = Job{
			ID:     "f" + string(rune('a'+i)),
			App:    apps.Sort(),
			Input:  4 * units.GB,
			Submit: time.Duration(i) * 30 * time.Second,
		}
	}
	p := MustArch(OutOFS, DefaultCalibration())
	st := NewReplayState()
	var n int
	sink := func(Result, time.Duration) { n++ }
	// Failures draw from seed 42, stragglers from 43.
	cfg := Config{Policy: Fair, Inject: Inject{FailureRate: 0.05, StragglerFrac: 0.2, Speculate: true, Seed: 42}}
	build := func() *Simulator {
		st.Reset()
		sim, err := st.Simulator(p, cfg, sink)
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	replay := func() {
		n = 0
		sim := build()
		for _, j := range jobs {
			sim.Submit(j)
		}
		st.Engine().Run()
		if n != len(jobs) {
			t.Fatalf("replayed %d of %d jobs", n, len(jobs))
		}
	}
	replay()
	replay()
	full := testing.AllocsPerRun(20, replay)
	setup := testing.AllocsPerRun(20, func() { build() })
	if full != setup {
		t.Errorf("warm faulted replay: %v allocs/op vs %v for injection setup alone; the replay machinery must add zero", full, setup)
	}
}

// TestGrayReplaySteadyStateAllocs pins the gray-window path, which neither
// test above runs: attempts armed inside a cpu-slow window are stretched,
// in-flight attempts are rescaled at both window edges (their superseded
// timers fire early and re-arm or drain), and the window opening starts
// speculative clones whose first finisher kills its partner. On a warm
// state the replay allocates what its fault setup does plus one clone pass
// per window opening (the pass's candidate list and sort), and nothing per
// attempt.
func TestGrayReplaySteadyStateAllocs(t *testing.T) {
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = Job{
			ID:     "g" + string(rune('a'+i)),
			App:    apps.Sort(),
			Input:  4 * units.GB,
			Submit: time.Duration(i) * 30 * time.Second,
		}
	}
	window := []faults.Event{
		{At: 2 * time.Minute, Kind: faults.CPUSlow, Cluster: faults.ClusterOut, Factor: 4},
		{At: 12 * time.Minute, Kind: faults.CPUOk, Cluster: faults.ClusterOut},
	}
	p := MustArch(OutOFS, DefaultCalibration())
	st := NewReplayState()
	var n int
	sink := func(Result, time.Duration) { n++ }
	setup := func() *Simulator {
		st.Reset()
		sim, err := st.Simulator(p, Config{Policy: Fair, Clone: true, Faults: window}, sink)
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	var started, won int
	replay := func() {
		n = 0
		sim := setup()
		for _, j := range jobs {
			sim.Submit(j)
		}
		st.Engine().Run()
		if n != len(jobs) {
			t.Fatalf("replayed %d of %d jobs", n, len(jobs))
		}
		started, won = sim.clonesStarted, sim.clonesWon
	}
	replay()
	replay()
	if started == 0 || won == 0 {
		t.Fatalf("the window started %d clones and %d won; the test needs both", started, won)
	}
	// speculateClones builds its candidate list and sorts it with
	// sort.Slice: three allocations at the one window opening.
	const clonePass = 3
	full := testing.AllocsPerRun(20, replay)
	base := testing.AllocsPerRun(20, func() { setup() })
	if full != base+clonePass {
		t.Errorf("warm gray replay: %v allocs/op vs %v for fault setup plus %d for the clone pass; stretched, rescaled and cloned attempts must add zero", full, base, clonePass)
	}
}
