package mapreduce

import (
	"strings"
	"testing"
	"time"

	"hybridmr/internal/apps"
	"hybridmr/internal/faults"
	"hybridmr/internal/units"
)

// checkerJobs builds a small sorted workload.
func checkerJobs(n int, gap time.Duration) []Job {
	return checkerJobsSized(n, gap, 2*units.GB)
}

func checkerJobsSized(n int, gap time.Duration, input units.Bytes) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			ID:     "j" + string(rune('a'+i%26)) + string(rune('a'+i/26)),
			App:    apps.Wordcount(),
			Input:  input,
			Submit: time.Duration(i) * gap,
		}
	}
	return jobs
}

// TestInvariantAllocsUnchangedWhenDisabled pins the disabled fast path: the
// invariant layer's hook sites are one nil compare each when detached, so a
// simulator given a nil checker, as core passes one when checking is off,
// must allocate exactly as much as one whose Config never mentions
// invariants — the same guard TestReplayAllocsUnchangedByNilObserver holds
// for the observability plumbing.
func TestInvariantAllocsUnchangedWhenDisabled(t *testing.T) {
	var detached *InvariantChecker
	bare := replayAllocs(t, Config{Policy: Fair})
	off := replayAllocs(t, Config{Policy: Fair, Invariants: detached})
	if bare != off {
		t.Errorf("replay allocates %.1f allocs bare but %.1f with invariants detached", bare, off)
	}
}

// TestInvariantsCleanReplay runs a clean and a crash-faulted replay with the
// checker attached and expects no violations: the shipped scheduler holds
// the contract.
func TestInvariantsCleanReplay(t *testing.T) {
	for _, spec := range []string{"", "out:crash@4mx3;out:recover@30m"} {
		inv := NewInvariantChecker()
		cfg := Config{Policy: Fair, Invariants: inv}
		if spec != "" {
			sched, err := faults.ParseSchedule(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = sched.ForCluster(faults.ClusterOut)
		}
		sim := newTestSim(t, MustArch(OutOFS, DefaultCalibration()), cfg)
		for _, j := range checkerJobs(30, 20*time.Second) {
			sim.Submit(j)
		}
		sim.drain()
		sim.CheckDrainedInvariants()
		if err := inv.Err(); err != nil {
			t.Errorf("spec %q: %v", spec, err)
		}
	}
}

// TestInvariantsCatchSilentMapLoss arms the deliberate map-output-loss bug
// and expects the ledger invariant to fire on a crash mid map phase.
func TestInvariantsCatchSilentMapLoss(t *testing.T) {
	defer EnableSilentMapLossBug()()
	inv := NewInvariantChecker()
	sched, err := faults.ParseSchedule("out:crash@4mx3;out:recover@30m")
	if err != nil {
		t.Fatal(err)
	}
	sim := newTestSim(t, MustArch(OutOFS, DefaultCalibration()), Config{
		Policy:     Fair,
		Invariants: inv,
		Faults:     sched.ForCluster(faults.ClusterOut),
	})
	// Big jobs keep the map phase running across the crash instant, so the
	// crash hits jobs with completed-but-unfetched map outputs.
	for _, j := range checkerJobsSized(8, 30*time.Second, 64*units.GB) {
		sim.Submit(j)
	}
	sim.drain()
	sim.CheckDrainedInvariants()
	found := false
	for _, v := range inv.Violations() {
		if v.Invariant == "map-output-ledger" {
			found = true
		}
	}
	if !found {
		t.Fatalf("silent map loss not caught; violations: %v", inv.Violations())
	}
	if err := inv.Err(); err == nil || !strings.Contains(err.Error(), "map-output-ledger") {
		t.Errorf("Err() = %v, want map-output-ledger mention", err)
	}
}

// TestInvariantCheckerCap exercises the collection bound and Dropped.
func TestInvariantCheckerCap(t *testing.T) {
	c := NewInvariantChecker()
	for i := 0; i < maxViolations+5; i++ {
		c.Violate("slot-balance", "synthetic %d", i)
	}
	if len(c.Violations()) != maxViolations {
		t.Errorf("collection holds %d, want cap %d", len(c.Violations()), maxViolations)
	}
	if c.Dropped() != 5 {
		t.Errorf("dropped %d, want 5", c.Dropped())
	}
	if c.Ok() {
		t.Error("Ok() true with violations recorded")
	}
	var nilChecker *InvariantChecker
	if !nilChecker.Ok() || nilChecker.Err() != nil {
		t.Error("nil checker should read as clean")
	}
}
