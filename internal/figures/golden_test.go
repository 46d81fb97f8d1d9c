package figures

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hybridmr/internal/core"
	"hybridmr/internal/faults"
	"hybridmr/internal/mapreduce"
	"hybridmr/internal/obs"
	"hybridmr/internal/stats"
	"hybridmr/internal/sweep"
	"hybridmr/internal/workload"
)

// update rewrites the golden snapshots under testdata/golden/. Run
//
//	go test ./internal/figures -run TestGolden -update
//
// after an intentional model change and review the diff like any other.
var update = flag.Bool("update", false, "rewrite golden files")

// goldenArtifacts are the snapshotted renders: Table I, the two cross-point
// figures whose thresholds drive Algorithm 1, the Fig. 10 trace replay and
// the faulted trace-replay resilience report. They pin the
// exact rendered bytes, so any drift in the cost model, the sweep runner's
// result ordering, or the text renderer fails here first.
func goldenArtifacts(cal mapreduce.Calibration) []struct {
	name  string
	build func() (string, error)
} {
	return []struct {
		name  string
		build func() (string, error)
	}{
		{"table1", func() (string, error) { return TableI().Render(), nil }},
		{"fig7", func() (string, error) {
			f, err := Fig7(cal)
			return f.Render(), err
		}},
		{"fig8", func() (string, error) {
			f, err := Fig8(cal)
			return f.Render(), err
		}},
		// The paper's headline experiment: a 600-job trace replayed on the
		// hybrid and both baselines under Fair, pinning the hybrid replay
		// (Hybrid.Replay) and the baseline replay (ReplayBaseline) byte for byte.
		{"fig10", func() (string, error) {
			f, err := Fig10(cal, smallTraceConfig(600))
			return f.Render(), err
		}},
		// The faulted trace replay: the demo fault schedule over a 600-job
		// trace, pinning the whole resilience report — event list, per-arch
		// stats and the failure-aware-vs-static verdict — byte for byte.
		// Invariants: true on both resilience builders attaches the assert-
		// only checker to every replay — any contract violation fails the
		// test outright instead of baking a broken report into the golden.
		{"resilience", func() (string, error) {
			jobs, err := workload.Generate(smallTraceConfig(600))
			if err != nil {
				return "", err
			}
			r, err := RunResilienceOpts(cal, jobs, faults.Demo(), core.Inject{}, obs.Set{}, nil,
				ResilienceOpts{Invariants: true})
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		// The gray-failure replay: the crash demo merged with the gray demo
		// (cpu/disk slowdowns, a NIC throttle, a rack partition) over the
		// same 600-job trace, with the sixth blacklist+cloning replay
		// enabled — pinning the degradation windows' factors, the
		// Hybrid-FA-BL row and the graceful-degradation verdict byte for
		// byte.
		{"gray_resilience", func() (string, error) {
			sched, err := faults.Merge(faults.Demo(), faults.GrayDemo())
			if err != nil {
				return "", err
			}
			jobs, err := workload.Generate(smallTraceConfig(600))
			if err != nil {
				return "", err
			}
			r, err := RunResilienceOpts(cal, jobs, sched, core.Inject{FailureRate: 0.25, Seed: 11}, obs.Set{}, nil,
				ResilienceOpts{FABlacklist: true, Invariants: true})
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		// The FIFO crash-requeue replay: all 300 jobs are submitted at t=0
		// so the FIFO queue stays thousands of tasks deep (the issue's
		// worst-case dispatch regime), then mass crashes kill in-flight
		// tasks and invalidate completed map output, re-entering tasks into
		// the ready queue out of submission order — exactly the path where
		// an indexed dispatch structure could silently diverge from the old
		// linear scan. The arrival-spread demo schedule never catches the
		// cluster busy, so this scenario forces kills (188+ task retries).
		// Pinned per-job, byte for byte.
		{"fifo_crash", func() (string, error) {
			return crashReplay(cal, mapreduce.FIFO, "THadoop FIFO deep queue under mass crashes")
		}},
		// The same deep-queue crash scenario under Fair: a crash kills many
		// running tasks of many jobs in one step, so their Fair keys drop
		// several at a time before the next pick — the path where the Fair
		// ready heap's deferred decrease-key must flush the held job.
		{"fair_crash", func() (string, error) {
			return crashReplay(cal, mapreduce.Fair, "THadoop Fair deep queue under mass crashes")
		}},
	}
}

// crashReplay is the deep-queue crash-requeue scenario behind the fifo_crash
// and fair_crash goldens: a 300-job trace all submitted at t=0 on THadoop,
// two mass crashes that kill in-flight tasks, the invariant checker attached,
// rendered per job.
func crashReplay(cal mapreduce.Calibration, policy mapreduce.Policy, title string) (string, error) {
	jobs, err := workload.Generate(smallTraceConfig(300))
	if err != nil {
		return "", err
	}
	for i := range jobs {
		jobs[i].Submit = 0
	}
	p, err := mapreduce.NewTHadoop(cal)
	if err != nil {
		return "", err
	}
	sched, err := faults.NewSchedule([]faults.Event{
		{At: 5 * time.Minute, Kind: faults.MachineCrash, Cluster: faults.ClusterAll, Count: 12},
		{At: 20 * time.Minute, Kind: faults.MachineRecover, Cluster: faults.ClusterAll, Count: 12},
		{At: 30 * time.Minute, Kind: faults.MachineCrash, Cluster: faults.ClusterAll, Count: 16},
		{At: 45 * time.Minute, Kind: faults.MachineRecover, Cluster: faults.ClusterAll, Count: 16},
	})
	if err != nil {
		return "", err
	}
	inv := mapreduce.NewInvariantChecker()
	rs, err := core.RunBaselineChecked(p, jobs, policy, sched.ForBaseline(), core.Inject{},
		nil, sweep.Budget{}, inv)
	if err != nil {
		return "", err
	}
	if verr := inv.Err(); verr != nil {
		return "", verr
	}
	return renderBaselineReplay(title, rs), nil
}

// renderBaselineReplay renders a faulted baseline replay deterministically:
// aggregate outcome plus a per-job sample pinning individual execution times
// and retry counts (the crash-requeue order is visible in both).
func renderBaselineReplay(title string, rs []mapreduce.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d jobs)\n", title, len(rs))
	ok, failed, retries := 0, 0, 0
	var makespan time.Duration
	cdf := stats.NewCDF(nil)
	for _, r := range rs {
		retries += r.TaskRetries
		if r.Err != nil {
			failed++
			continue
		}
		ok++
		cdf.Add(r.Exec.Seconds())
		if r.End > makespan {
			makespan = r.End
		}
	}
	fmt.Fprintf(&b, "ok %d failed %d makespan %.1fs task-retries %d\n",
		ok, failed, makespan.Seconds(), retries)
	fmt.Fprintf(&b, "exec mean %.2fs p50 %.2fs p99 %.2fs\n",
		cdf.Mean(), cdf.Quantile(0.5), cdf.Quantile(0.99))
	for i := 0; i < len(rs); i += 25 {
		r := rs[i]
		status := "ok"
		if r.Err != nil {
			status = "failed"
		}
		fmt.Fprintf(&b, "  %-14s %-6s exec %10.2fs retries %d\n",
			r.Job.ID, status, r.Exec.Seconds(), r.TaskRetries)
	}
	return b.String()
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".txt")
}

// TestGolden compares each artifact's render against its snapshot.
// The floating-point model is deterministic on a given architecture; if a
// new target's FPU scheduling legitimately shifts a digit, regenerate with
// -update and review.
func TestGolden(t *testing.T) {
	for _, art := range goldenArtifacts(cal()) {
		t.Run(art.name, func(t *testing.T) {
			got, err := art.build()
			if err != nil {
				t.Fatal(err)
			}
			path := goldenPath(art.name)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create the snapshot)", err)
			}
			if got != string(want) {
				t.Errorf("%s drifted from golden snapshot %s (regenerate with -update if intentional)\ngot:\n%s\nwant:\n%s",
					art.name, path, got, want)
			}
		})
	}
}

// TestGoldenParallelMatchesSerial is the tentpole's determinism guard:
// every snapshotted artifact — plus the heavier Fig. 5 — must render byte-identical whether the sweep runner uses one
// worker (the historical serial path) or a saturated pool, each with a
// fresh cache so no memoized result can mask an ordering bug.
func TestGoldenParallelMatchesSerial(t *testing.T) {
	old := sweep.Default()
	defer sweep.SetDefault(old)

	render := func(workers int) map[string]string {
		sweep.SetDefault(sweep.New(workers))
		out := make(map[string]string)
		for _, art := range goldenArtifacts(cal()) {
			text, err := art.build()
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, art.name, err)
			}
			out[art.name] = text
		}
		f5, err := Fig5(cal())
		if err != nil {
			t.Fatal(err)
		}
		out["fig5"] = f5.Render()
		return out
	}

	serial := render(1)
	for _, workers := range []int{2, 8} {
		parallel := render(workers)
		for name, want := range serial {
			if parallel[name] != want {
				t.Errorf("%s: %d-worker render differs from serial", name, workers)
			}
		}
	}
}

// TestParallelSmoke is the -race smoke test of the parallel figure paths:
// Fig. 5 and Fig. 7 on a saturated fresh-cache pool, checked for shape.
// Guarded by testing.Short() so `go test -short` stays minimal.
func TestParallelSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel smoke test skipped in -short mode")
	}
	old := sweep.Default()
	defer sweep.SetDefault(old)
	sweep.SetDefault(sweep.New(8))

	f5, err := Fig5(cal())
	if err != nil {
		t.Fatal(err)
	}
	if len(f5.Panels) != 4 {
		t.Errorf("Fig5 has %d panels", len(f5.Panels))
	}
	f7, err := Fig7(cal())
	if err != nil {
		t.Fatal(err)
	}
	if len(f7.Panels) != 1 || len(f7.Panels[0].Series) != 2 {
		t.Errorf("Fig7 shape: %+v", f7.Panels)
	}
	hits, misses := sweep.Default().Cache().Stats()
	if misses == 0 {
		t.Error("no simulations ran")
	}
	// Fig. 7's 96-step bisection re-probes its own 40-step curve's range
	// and Fig. 5 shares the up-OFS baseline with its own measurement grid,
	// so the process-wide cache must have absorbed repeats.
	if hits == 0 {
		t.Errorf("no cache hits across Fig5+Fig7 (misses=%d)", misses)
	}
}
