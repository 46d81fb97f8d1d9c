package figures

import (
	"runtime"
	"testing"

	"hybridmr/internal/core"
	"hybridmr/internal/faults"
	"hybridmr/internal/obs"
	"hybridmr/internal/sweep"
	"hybridmr/internal/workload"
)

// meanAllocBytes warms the process-wide replay-state pool with two calls of
// render per sweep worker, then returns the mean bytes each of five further
// calls allocates (runtime.MemStats.TotalAlloc, which counts every heap
// allocation whether or not a collection ran).
func meanAllocBytes(t *testing.T, render func() error) uint64 {
	t.Helper()
	const n = 5
	for i := 0; i < 2*sweep.Default().Workers(); i++ {
		if err := render(); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := render(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestReplayByteBudget keeps per-job result slices out of the two
// report paths that stream replay results into their own columns: Fig. 10
// on the 6000-job day and the resilience report on the 2000-job demo each
// allocate at most 2 MB per render once the replay pool is warm. A full
// []mapreduce.Result or []core.JobResult per replay costs 1.5–1.7 MB on the
// day alone (264 and 288 B per job), so one slice coming back fails this.
func TestReplayByteBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the 6000-job day and the 2000-job resilience report several times")
	}
	const budget = 2 << 20
	day := workload.DefaultConfig()
	got := meanAllocBytes(t, func() error {
		_, err := Fig10(cal(), day)
		return err
	})
	t.Logf("Fig10: %d B per render", got)
	if got > budget {
		t.Errorf("Fig10 on the %d-job day allocates %d B per render, budget %d", day.Jobs, got, budget)
	}

	jobs, err := workload.Generate(smallTraceConfig(2000))
	if err != nil {
		t.Fatal(err)
	}
	inj := core.Inject{FailureRate: 0.005, StragglerFrac: 0.1, Speculate: true, Seed: 7}
	got = meanAllocBytes(t, func() error {
		_, err := RunResilienceOpts(cal(), jobs, faults.Demo(), inj, obs.Set{}, nil, ResilienceOpts{})
		return err
	})
	t.Logf("RunResilienceOpts: %d B per report", got)
	if got > budget {
		t.Errorf("RunResilienceOpts on the %d-job demo allocates %d B per report, budget %d", len(jobs), got, budget)
	}
}
