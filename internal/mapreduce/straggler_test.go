package mapreduce

import (
	"testing"
	"time"

	"hybridmr/internal/apps"
	"hybridmr/internal/units"
)

func TestInjectStragglersValidation(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	if err := buildErr(p, Config{Inject: Inject{StragglerFrac: -0.1}}); err == nil {
		t.Error("negative fraction accepted")
	}
	if err := buildErr(p, Config{Inject: Inject{StragglerFrac: 11}}); err == nil {
		t.Error("fraction 11 accepted")
	}
	if err := buildErr(p, Config{Inject: Inject{StragglerFrac: 0.5, Speculate: true}}); err != nil {
		t.Fatal(err)
	}
}

func stragglerExec(t *testing.T, frac float64, speculate bool, seed int64) time.Duration {
	t.Helper()
	p := MustArch(OutOFS, DefaultCalibration())
	// Stragglers draw from Seed+1.
	sim := newTestSim(t, p, Config{Inject: Inject{StragglerFrac: frac, Speculate: speculate, Seed: seed - 1}})
	sim.Submit(Job{ID: "j", App: apps.Grep(), Input: 32 * units.GB})
	r := sim.drain()[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	return r.Exec
}

// Stragglers stretch the map phase (a wave ends with its slowest task);
// speculative execution claws most of that back — the Hadoop behaviour the
// jitter model reproduces.
func TestStragglersAndSpeculation(t *testing.T) {
	clean := stragglerExec(t, 0, false, 0)
	slow := stragglerExec(t, 1.0, false, 3)
	spec := stragglerExec(t, 1.0, true, 3)
	if slow <= clean {
		t.Errorf("stragglers did not slow the job: %v vs %v", slow, clean)
	}
	if spec >= slow {
		t.Errorf("speculation did not help: %v vs %v", spec, slow)
	}
	// Speculation bounds the tail near 1.3× the per-wave duration.
	if spec > clean*3/2 {
		t.Errorf("speculative exec %v too far above clean %v", spec, clean)
	}
}

// Jitter is deterministic per seed.
func TestStragglersDeterministic(t *testing.T) {
	a := stragglerExec(t, 0.8, false, 9)
	b := stragglerExec(t, 0.8, false, 9)
	if a != b {
		t.Errorf("same seed diverged: %v vs %v", a, b)
	}
}

// Jitter composes with failure injection.
func TestStragglersWithFailures(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	sim := newTestSim(t, p, Config{Inject: Inject{FailureRate: 0.05, StragglerFrac: 0.5, Speculate: true, Seed: 2}})
	sim.Submit(Job{ID: "j", App: apps.Wordcount(), Input: 16 * units.GB})
	r := sim.drain()[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Exec <= 0 {
		t.Error("non-positive exec")
	}
}
