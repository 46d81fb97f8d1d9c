package mapreduce

import (
	"testing"
	"time"

	"hybridmr/internal/apps"
	"hybridmr/internal/units"
)

// These budgets are the runtime half of the //simlint:hotpath contract: the
// hotalloc analyzer keeps allocating constructs out of the marked functions
// statically, and these AllocsPerRun measurements pin the whole marked call
// graph — dispatch, the ready-set ladder and task heaps, the job-run and
// attempt freelists, arrival queue, jitter and gray-slowdown scaling — at
// zero allocations once the pooled state is warm. The cross-check that
// every marked function is claimed by one of these tests lives in
// internal/simlint (TestHotpathMarkersHaveAllocBudgets).

// warmReplayAllocs runs the scenario twice on a pooled state to reach the
// freelists' high-water marks, then measures a steady-state replay: the
// simulator is built with one counting sink made outside the measurement,
// run submits the jobs, and the engine drains. It fails unless every one of
// the want jobs reported in every replay.
func warmReplayAllocs(t *testing.T, want int, run func(*Simulator)) float64 {
	t.Helper()
	p := MustArch(OutOFS, DefaultCalibration())
	st := NewReplayState()
	var n int
	sink := func(Result, time.Duration) { n++ }
	replay := func() {
		st.Reset()
		n = 0
		run(st.Simulator(p, sink))
		st.Engine().Run()
		if n != want {
			t.Fatalf("replayed %d of %d jobs", n, want)
		}
	}
	replay()
	replay()
	return testing.AllocsPerRun(20, replay)
}

// TestPooledReplaySteadyStateAllocs pins the clean trace-replay path — job
// submission, arrival queue, dispatch, both task heaps, completion — at
// zero allocations on a warm ReplayState.
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
	avg := warmReplayAllocs(t, len(jobs), func(sim *Simulator) {
		sim.SetPolicy(Fair)
		for _, j := range jobs {
			sim.Submit(j)
		}
	})
	if avg != 0 {
		t.Errorf("warm pooled replay: %v allocs/op, want 0", avg)
	}
}

// TestFaultedReplaySteadyStateAllocs pins the failure/straggler machinery —
// attempt lifecycle, retry accounting, jitter draws, speculative restarts —
// at zero allocations on a warm state beyond the documented setup cost: the
// Inject* calls build fresh RNGs per replay (recycle drops them so seeds
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
	inject := func(sim *Simulator) {
		sim.SetPolicy(Fair)
		if err := sim.InjectFailures(0.05, 42); err != nil {
			t.Fatal(err)
		}
		if err := sim.InjectStragglers(0.2, true, 7); err != nil {
			t.Fatal(err)
		}
	}
	replay := func() {
		st.Reset()
		n = 0
		sim := st.Simulator(p, sink)
		inject(sim)
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
	setup := testing.AllocsPerRun(20, func() {
		st.Reset()
		inject(st.Simulator(p, sink))
	})
	if full != setup {
		t.Errorf("warm faulted replay: %v allocs/op vs %v for injection setup alone; the replay machinery must add zero", full, setup)
	}
}
