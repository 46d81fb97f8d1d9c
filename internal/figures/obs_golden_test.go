package figures

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hybridmr/internal/core"
	"hybridmr/internal/faults"
	"hybridmr/internal/obs"
	"hybridmr/internal/sweep"
	"hybridmr/internal/workload"
)

// The observability golden wall: the three exports — span trace, metrics
// snapshot, decision audit — of one observed resilience replay are pinned
// byte for byte, and must come out identical from a serial and a saturated
// parallel pool. A fresh runner per run keeps the cache hit/miss counters a
// pure function of the workload (the default runner's cache is process-wide
// and polluted by other tests).

// obsFaultSchedule is the scenario the exports are pinned under: one
// scale-up machine crashes and recovers, and a partial OFS outage degrades
// both halves — all inside the 80-job trace's ~19-minute arrival window.
func obsFaultSchedule(t *testing.T) *faults.Schedule {
	t.Helper()
	s, err := faults.NewSchedule([]faults.Event{
		// 170 s lands inside a scale-up map wave, so the crash kills live
		// attempts and the kill/requeue trace path is part of the pinned
		// exports (a minute-aligned instant falls in an idle gap).
		{At: 170 * time.Second, Kind: faults.MachineCrash, Cluster: faults.ClusterUp, Count: 1},
		{At: 6 * time.Minute, Kind: faults.OFSServerDown, Cluster: faults.ClusterAll, Count: 2},
		{At: 12 * time.Minute, Kind: faults.OFSServerUp, Cluster: faults.ClusterAll, Count: 2},
		{At: 16 * time.Minute, Kind: faults.MachineRecover, Cluster: faults.ClusterUp, Count: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// obsExports holds one observed replay's render and exports.
type obsExports struct {
	render  string
	trace   string
	metrics string
	audit   string
}

// runObserved replays the 80-job trace under obsFaultSchedule with all three
// sinks attached, on a fresh runner with the given worker count.
func runObserved(t *testing.T, workers int) obsExports {
	t.Helper()
	jobs, err := workload.Generate(smallTraceConfig(80))
	if err != nil {
		t.Fatal(err)
	}
	o := obs.Set{Trace: obs.NewTracer(), Metrics: obs.NewRegistry(), Audit: obs.NewAudit()}
	res, err := RunResilienceOpts(cal(), jobs, obsFaultSchedule(t), core.Inject{}, o, sweep.New(workers), ResilienceOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var tb, mb, ab bytes.Buffer
	if err := o.Trace.WriteJSONL(&tb); err != nil {
		t.Fatal(err)
	}
	if err := o.Metrics.WriteSnapshot(&mb); err != nil {
		t.Fatal(err)
	}
	if err := o.Audit.WriteJSONL(&ab); err != nil {
		t.Fatal(err)
	}
	return obsExports{render: res.Render(), trace: tb.String(), metrics: mb.String(), audit: ab.String()}
}

// TestObsGolden pins the three exports byte for byte. Regenerate with
// -update after an intentional model or format change and review the diff.
func TestObsGolden(t *testing.T) {
	got := runObserved(t, 1)
	for _, g := range []struct {
		file, got string
	}{
		{"obs_trace.jsonl", got.trace},
		{"obs_metrics.json", got.metrics},
		{"obs_audit.jsonl", got.audit},
	} {
		t.Run(g.file, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", g.file)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(g.got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create the snapshot)", err)
			}
			if g.got != string(want) {
				t.Errorf("%s drifted from its golden snapshot (regenerate with -update if intentional)", g.file)
			}
		})
	}
	if got.trace == "" || got.audit == "" {
		t.Error("observed replay produced empty exports")
	}
}

// TestObsSerialMatchesParallel is the trace-identity guard mirroring the
// sweep guard: the exports must be byte-identical from a 1-worker and an
// 8-worker pool — the tracer and audit belong to the single-threaded
// failure-aware replay, and the cache counters are interleaving-invariant.
func TestObsSerialMatchesParallel(t *testing.T) {
	serial := runObserved(t, 1)
	parallel := runObserved(t, 8)
	if serial.trace != parallel.trace {
		t.Error("span trace differs between serial and parallel pools")
	}
	if serial.metrics != parallel.metrics {
		t.Errorf("metrics snapshot differs between serial and parallel pools\nserial:\n%s\nparallel:\n%s",
			serial.metrics, parallel.metrics)
	}
	if serial.audit != parallel.audit {
		t.Error("decision audit differs between serial and parallel pools")
	}
	if serial.render != parallel.render {
		t.Error("report render differs between serial and parallel pools")
	}
}

// TestObservedRenderMatchesGolden proves observation is free of side
// effects: the resilience report of the exact golden scenario, replayed with
// every sink attached, must match the pre-existing golden snapshot byte for
// byte.
func TestObservedRenderMatchesGolden(t *testing.T) {
	jobs, err := workload.Generate(smallTraceConfig(600))
	if err != nil {
		t.Fatal(err)
	}
	o := obs.Set{Trace: obs.NewTracer(), Metrics: obs.NewRegistry(), Audit: obs.NewAudit()}
	res, err := RunResilienceOpts(cal(), jobs, faults.Demo(), core.Inject{}, o, sweep.New(0), ResilienceOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenPath("resilience"))
	if err != nil {
		t.Fatalf("%v (the resilience golden must exist)", err)
	}
	if got := res.Render(); got != string(want) {
		t.Error("resilience render changed when observability was attached")
	}
	if o.Trace.Len() == 0 || o.Audit.Len() == 0 || o.Metrics.Len() == 0 {
		t.Error("sinks recorded nothing during the observed replay")
	}
}
