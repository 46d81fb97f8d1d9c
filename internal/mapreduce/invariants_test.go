package mapreduce

import (
	"testing"
	"testing/quick"
	"time"

	"hybridmr/internal/apps"
	"hybridmr/internal/units"
)

// Property: for any workload, the simulator conserves jobs (every submitted
// job yields exactly one result), all phase durations are non-negative, the
// execution time equals End − Submit, and no result precedes its
// submission.
func TestSimulatorConservationProperty(t *testing.T) {
	profiles := []apps.Profile{apps.Wordcount(), apps.Grep(), apps.Sort(), apps.DFSIOWrite()}
	p := MustArch(OutOFS, DefaultCalibration())
	f := func(seeds []uint32, fair bool) bool {
		if len(seeds) == 0 || len(seeds) > 40 {
			return true
		}
		cfg := Config{}
		if fair {
			cfg.Policy = Fair
		}
		sim := newTestSim(t, p, cfg)
		ids := make(map[string]bool, len(seeds))
		for i, s := range seeds {
			id := string(rune('a'+i%26)) + string(rune('0'+i/26))
			ids[id] = true
			sim.Submit(Job{
				ID:     id,
				App:    profiles[int(s)%len(profiles)],
				Input:  units.Bytes(s)*units.MB%(8*units.GB) + units.KB,
				Submit: time.Duration(s%600) * time.Second,
			})
		}
		results := sim.drain()
		if len(results) != len(seeds) {
			return false
		}
		for _, r := range results {
			if !ids[r.Job.ID] {
				return false
			}
			delete(ids, r.Job.ID)
			if r.Err != nil {
				return false
			}
			if r.MapPhase < 0 || r.ShufflePhase < 0 || r.ReducePhase < 0 {
				return false
			}
			if r.Exec != r.End-r.Submit {
				return false
			}
			if r.Start < r.Submit || r.End < r.Start {
				return false
			}
		}
		return len(ids) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: an isolated job's result is independent of the policy, and a
// job never finishes faster under contention than alone.
func TestSimulatorContentionProperty(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	solo := map[units.Bytes]time.Duration{}
	soloExec := func(size units.Bytes) time.Duration {
		if d, ok := solo[size]; ok {
			return d
		}
		r := p.RunIsolated(Job{ID: "solo", App: apps.Grep(), Input: size})
		solo[size] = r.Exec
		return r.Exec
	}
	f := func(sizesRaw []uint16, fair bool) bool {
		if len(sizesRaw) == 0 || len(sizesRaw) > 20 {
			return true
		}
		cfg := Config{}
		if fair {
			cfg.Policy = Fair
		}
		sim := newTestSim(t, p, cfg)
		sizes := make(map[string]units.Bytes, len(sizesRaw))
		for i, s := range sizesRaw {
			id := string(rune('a'+i%26)) + string(rune('0'+i/26))
			size := units.Bytes(s)*units.MB + units.KB
			sizes[id] = size
			// All jobs arrive together: maximum contention.
			sim.Submit(Job{ID: id, App: apps.Grep(), Input: size})
		}
		for _, r := range sim.drain() {
			if r.Err != nil {
				return false
			}
			if r.Exec < soloExec(sizes[r.Job.ID]) {
				return false // contention made a job faster?
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Under the Fair policy, a one-task job submitted while a huge job holds
// the cluster still starts within roughly one task duration — the property
// that keeps the paper's small jobs responsive (Fig. 10a). Under FIFO it
// waits for the whole backlog.
func TestFairKeepsSmallJobsResponsive(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	run := func(policy Policy) time.Duration {
		sim := newTestSim(t, p, Config{Policy: policy})
		sim.Submit(Job{ID: "huge", App: apps.Wordcount(), Input: 200 * units.GB})
		sim.Submit(Job{ID: "tiny", App: apps.Grep(), Input: units.MB, Submit: 30 * time.Second})
		for _, r := range sim.drain() {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			if r.Job.ID == "tiny" {
				return r.Exec
			}
		}
		t.Fatal("tiny job missing")
		return 0
	}
	fair, fifo := run(Fair), run(FIFO)
	if fair >= fifo {
		t.Errorf("fair tiny-job exec %v not below FIFO %v", fair, fifo)
	}
	// Under Fair the tiny job finishes within a minute; under FIFO it
	// waits behind ~1600 map tasks.
	if fair > time.Minute {
		t.Errorf("fair tiny-job exec %v, want under a minute", fair)
	}
	if fifo < 2*fair {
		t.Errorf("FIFO should at least double the tiny job's time (fair %v, fifo %v)", fair, fifo)
	}
}

// Policy strings.
func TestPolicyString(t *testing.T) {
	if FIFO.String() != "fifo" || Fair.String() != "fair" {
		t.Error("policy strings")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy string")
	}
}

// Submitting the same workload twice yields identical results — the
// simulator is deterministic.
func TestSimulatorDeterminism(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	build := func() []Result {
		sim := newTestSim(t, p, Config{Policy: Fair})
		for i := 0; i < 30; i++ {
			sim.Submit(Job{
				ID:     string(rune('a' + i)),
				App:    apps.Wordcount(),
				Input:  units.Bytes(i+1) * 100 * units.MB,
				Submit: time.Duration(i) * 7 * time.Second,
			})
		}
		return sim.drain()
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatal("result counts differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}
