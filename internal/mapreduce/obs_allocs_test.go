package mapreduce

import (
	"testing"
	"time"

	"hybridmr/internal/apps"
	"hybridmr/internal/units"
)

// replayAllocs measures the allocations of one small replay, optionally
// calling SetObserver with nil sinks first. The observability plumbing is
// nil-receiver no-ops plus Enabled() gates, so the two configurations must
// allocate identically — this is the guard that keeps the PR 3 zero-alloc
// kernel budget intact when observability is compiled in but off.
func replayAllocs(t *testing.T, nilObserver bool) float64 {
	t.Helper()
	p := MustArch(OutOFS, DefaultCalibration())
	jobs := make([]Job, 40)
	for i := range jobs {
		jobs[i] = Job{
			ID:     "j" + string(rune('a'+i%26)) + string(rune('a'+i/26)),
			App:    apps.Wordcount(),
			Input:  2 * units.GB,
			Submit: time.Duration(i) * 20 * time.Second,
		}
	}
	return testing.AllocsPerRun(10, func() {
		sim := newTestSim(p)
		sim.SetPolicy(Fair)
		if nilObserver {
			sim.SetObserver(nil, nil)
		}
		for _, j := range jobs {
			sim.Submit(j)
		}
		if res := sim.drain(); len(res) != len(jobs) {
			t.Fatalf("replayed %d of %d jobs", len(res), len(jobs))
		}
	})
}

// TestReplayAllocsUnchangedByNilObserver pins the nil-observer fast path: a
// simulator with SetObserver(nil, nil) must allocate exactly as much as one
// that never heard of observability.
func TestReplayAllocsUnchangedByNilObserver(t *testing.T) {
	bare := replayAllocs(t, false)
	nilObs := replayAllocs(t, true)
	if bare != nilObs {
		t.Errorf("replay allocates %.1f allocs bare but %.1f with a nil observer attached", bare, nilObs)
	}
}
