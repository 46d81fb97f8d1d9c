package mapreduce

import (
	"strings"
	"testing"
	"time"

	"hybridmr/internal/apps"
	"hybridmr/internal/units"
)

func TestInjectFailuresValidation(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	if err := buildErr(p, Config{Inject: Inject{FailureRate: -0.1, Seed: 1}}); err == nil {
		t.Error("negative rate accepted")
	}
	if err := buildErr(p, Config{Inject: Inject{FailureRate: 1.0, Seed: 1}}); err == nil {
		t.Error("rate 1.0 accepted")
	}
	if err := buildErr(p, Config{Inject: Inject{FailureRate: 0.1, Seed: 1}}); err != nil {
		t.Fatal(err)
	}
}

// Moderate failure rates slow jobs down (retries) but everything still
// completes, and the retry counter reflects the injections.
func TestFailuresRetryAndComplete(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	job := Job{ID: "j", App: apps.Grep(), Input: 32 * units.GB}

	clean := newTestSim(t, p, Config{})
	clean.Submit(job)
	base := clean.drain()[0]

	flaky := newTestSim(t, p, Config{Inject: Inject{FailureRate: 0.10, Seed: 42}})
	flaky.Submit(job)
	res := flaky.drain()[0]
	if res.Err != nil {
		t.Fatalf("10%% failures should retry, not fail: %v", res.Err)
	}
	if res.TaskRetries == 0 {
		t.Error("no retries recorded at 10% failure rate over 256 tasks")
	}
	if res.Exec <= base.Exec {
		t.Errorf("flaky exec %v not above clean %v", res.Exec, base.Exec)
	}
}

// At extreme failure rates some task exhausts its four attempts and the
// job fails with a descriptive error — Hadoop's max-attempts semantics.
func TestFailuresExhaustAttempts(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	sim := newTestSim(t, p, Config{Inject: Inject{FailureRate: 0.9, Seed: 7}})
	sim.Submit(Job{ID: "doomed", App: apps.Grep(), Input: 8 * units.GB})
	res := sim.drain()
	if len(res) != 1 {
		t.Fatalf("%d results", len(res))
	}
	if res[0].Err == nil {
		t.Fatal("90% failure rate should kill the job")
	}
	if !strings.Contains(res[0].Err.Error(), "attempts") {
		t.Errorf("error = %v", res[0].Err)
	}
}

// A failed job releases its slots: jobs behind it still finish.
func TestFailedJobReleasesSlots(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	sim := newTestSim(t, p, Config{Policy: Fair, Inject: Inject{FailureRate: 0.9, Seed: 11}})
	sim.Submit(Job{ID: "doomed", App: apps.Wordcount(), Input: 16 * units.GB})
	// The follower is tiny: even at 90 % it survives with high
	// probability... but determinism means we just check completion or
	// failure, not hang.
	sim.Submit(Job{ID: "later", App: apps.Grep(), Input: units.MB, Submit: time.Minute})
	res := sim.drain()
	if len(res) != 2 {
		t.Fatalf("%d results — a job got stuck", len(res))
	}
}

// Failure injection is deterministic per seed.
func TestFailuresDeterministic(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	run := func(seed int64) Result {
		sim := newTestSim(t, p, Config{Inject: Inject{FailureRate: 0.2, Seed: seed}})
		sim.Submit(Job{ID: "j", App: apps.Grep(), Input: 16 * units.GB})
		return sim.drain()[0]
	}
	a, b := run(5), run(5)
	if a.Exec != b.Exec || a.TaskRetries != b.TaskRetries {
		t.Errorf("same seed diverged: %v/%d vs %v/%d", a.Exec, a.TaskRetries, b.Exec, b.TaskRetries)
	}
	c := run(6)
	if a.Exec == c.Exec && a.TaskRetries == c.TaskRetries {
		t.Log("different seeds coincided (possible but unlikely)")
	}
}
