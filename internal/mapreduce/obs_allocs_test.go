package mapreduce

import (
	"testing"
	"time"

	"hybridmr/internal/apps"
	"hybridmr/internal/obs"
	"hybridmr/internal/units"
)

// replayAllocs measures the allocations of one small replay on a fresh
// simulator built with cfg. The observability plumbing is nil-receiver
// no-ops plus Enabled() gates, so a Config carrying nil sinks must allocate
// exactly as one that names none — the guard that keeps the zero-alloc
// kernel budget intact when observability is compiled in but off.
func replayAllocs(t *testing.T, cfg Config) float64 {
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
		sim := newTestSim(t, p, cfg)
		for _, j := range jobs {
			sim.Submit(j)
		}
		if res := sim.drain(); len(res) != len(jobs) {
			t.Fatalf("replayed %d of %d jobs", len(res), len(jobs))
		}
	})
}

// TestReplayAllocsUnchangedByNilObserver pins the nil-observer fast path:
// a simulator given a disabled obs.Set's sinks, as core passes them when
// observability is off, must allocate exactly as much as one whose Config
// never mentions observability.
func TestReplayAllocsUnchangedByNilObserver(t *testing.T) {
	var off obs.Set
	bare := replayAllocs(t, Config{Policy: Fair})
	nilObs := replayAllocs(t, Config{Policy: Fair, Trace: off.Trace, Metrics: off.Metrics})
	if bare != nilObs {
		t.Errorf("replay allocates %.1f allocs bare but %.1f with a nil observer attached", bare, nilObs)
	}
}
