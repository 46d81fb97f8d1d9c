package mapreduce

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"hybridmr/internal/apps"
	"hybridmr/internal/faults"
	"hybridmr/internal/units"
)

// approxDur reports whether two durations agree within tol (rescaling rounds
// through float64 nanoseconds).
func approxDur(a, b, tol time.Duration) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

// A cluster-wide cpu slowdown open for the whole run stretches exactly the
// task phases: map and reduce double, setup and shuffle do not.
func TestGraySlowdownStretchesTasks(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	job := Job{ID: "j", App: apps.Grep(), Input: 64 * units.GB}

	clean := newTestSim(t, p, Config{})
	clean.Submit(job)
	base := clean.drain()[0]

	sim := newTestSim(t, p, Config{
		Faults: []faults.Event{
			{At: 0, Kind: faults.CPUSlow, Cluster: faults.ClusterOut, Count: 0, Factor: 2},
		},
	})
	sim.Submit(job)
	res := sim.drain()[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !approxDur(res.MapPhase, 2*base.MapPhase, time.Microsecond) {
		t.Errorf("map phase %v, want 2× clean %v", res.MapPhase, base.MapPhase)
	}
	if !approxDur(res.ReducePhase, 2*base.ReducePhase, time.Microsecond) {
		t.Errorf("reduce phase %v, want 2× clean %v", res.ReducePhase, base.ReducePhase)
	}
	if res.ShufflePhase != base.ShufflePhase {
		t.Errorf("shuffle %v changed (want %v): cpu windows must not stretch it", res.ShufflePhase, base.ShufflePhase)
	}
	if !approxDur(res.Exec, base.Exec+base.MapPhase+base.ReducePhase, 10*time.Microsecond) {
		t.Errorf("exec %v, want clean %v + one extra map+reduce phase", res.Exec, base.Exec)
	}
}

// A window covering only part of the cluster stretches by the uniform
// weight (avail-k+k·f)/avail, not the full factor.
func TestGrayWeightedSlowdown(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration()) // 12 machines
	job := Job{ID: "j", App: apps.Grep(), Input: 64 * units.GB}

	clean := newTestSim(t, p, Config{})
	clean.Submit(job)
	base := clean.drain()[0]

	sim := newTestSim(t, p, Config{
		Faults: []faults.Event{
			{At: 0, Kind: faults.DiskSlow, Cluster: faults.ClusterOut, Count: 6, Factor: 3},
		},
	})
	sim.Submit(job)
	res := sim.drain()[0]
	// weight = (12-6+6·3)/12 = 2
	if !approxDur(res.MapPhase, 2*base.MapPhase, time.Microsecond) {
		t.Errorf("map phase %v, want 2× clean %v under 6-of-12 ×3 disk window", res.MapPhase, base.MapPhase)
	}
}

// Opening a window mid-attempt rescales the remaining work, and closing it
// rescales back: a ×3 window over the middle half of a one-wave map phase
// yields exactly 4/3 of the clean map time (½ clean + ½·3 stretched, of
// which the second half un-stretches on close... computed in closed form
// below).
func TestGrayRescaleClosedForm(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	job := Job{ID: "j", App: apps.Grep(), Input: 4 * units.GB} // one map wave

	clean := newTestSim(t, p, Config{})
	clean.Submit(job)
	base := clean.drain()[0]
	if base.MapWaves != 1 {
		t.Fatalf("want a single-wave job, got %d waves", base.MapWaves)
	}
	m := base.MapPhase // one wave: the map task duration
	t0 := base.Start   // first map launches when setup ends

	// Open ×3 at t0+m/2: remaining m/2 stretches to 3m/2 (fire at t0+2m).
	// Close at t0+m: remaining m shrinks to m/3 (fire at t0+4m/3).
	sim := newTestSim(t, p, Config{
		Faults: []faults.Event{
			{At: t0 + m/2, Kind: faults.CPUSlow, Cluster: faults.ClusterOut, Count: 0, Factor: 3},
			{At: t0 + m, Kind: faults.CPUOk, Cluster: faults.ClusterOut},
		},
	})
	sim.Submit(job)
	res := sim.drain()[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	want := m + m/3
	if !approxDur(res.MapPhase, want, time.Microsecond) {
		t.Errorf("map phase %v, want %v (4/3 of clean %v)", res.MapPhase, want, m)
	}
	if sim.GrayActive() {
		t.Error("gray still active after the window closed")
	}
	checkSlotsDrained(t, sim.Simulator)
}

// All-factor-1.0 windows are the identity: the run's results are
// byte-identical to a run with no schedule at all (testing/quick over window
// shapes).
func TestGrayFactorOneIsIdentity(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	jobs := []Job{
		{ID: "a", App: apps.Sort(), Input: 64 * units.GB},
		{ID: "b", App: apps.Grep(), Input: 32 * units.GB, Submit: 30 * time.Minute},
	}
	run := func(events []faults.Event) []Result {
		sim := newTestSim(t, p, Config{Policy: Fair, Clone: true, Faults: events})
		for _, j := range jobs {
			sim.Submit(j)
		}
		return sim.drain()
	}
	base := run(nil)

	kinds := [][2]faults.Kind{
		{faults.CPUSlow, faults.CPUOk},
		{faults.DiskSlow, faults.DiskOk},
		{faults.NICThrottle, faults.NICOk},
		{faults.RackPartition, faults.RackHeal},
	}
	prop := func(pick uint8, openMin, lenMin uint16, count uint8) bool {
		kp := kinds[int(pick)%len(kinds)]
		open := time.Duration(openMin) * time.Minute
		close := open + time.Duration(lenMin+1)*time.Minute
		n := int(count) % 13 // 0 = all machines
		if kp[0] == faults.NICThrottle || kp[0] == faults.RackPartition {
			n = 1 // cluster-wide kinds take exactly one window
		}
		events := []faults.Event{
			{At: open, Kind: kp[0], Cluster: faults.ClusterOut, Count: n, Factor: 1},
			{At: close, Kind: kp[1], Cluster: faults.ClusterOut, Count: n},
		}
		return reflect.DeepEqual(run(events), base)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// With cloning enabled, a heavy slowdown window mid-map-phase finishes the
// job faster than without: healthy-speed clones beat the stretched
// originals, and the loser's kill leaks no slots.
func TestSpeculativeCloneWins(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	job := Job{ID: "j", App: apps.Grep(), Input: 4 * units.GB} // one wave: slots stay free for clones

	clean := newTestSim(t, p, Config{})
	clean.Submit(job)
	base := clean.drain()[0]
	events := []faults.Event{
		{At: base.Start + base.MapPhase/4, Kind: faults.CPUSlow, Cluster: faults.ClusterOut, Count: 0, Factor: 4},
	}

	run := func(clone bool) (Result, *testSim) {
		sim := newTestSim(t, p, Config{Clone: clone, Faults: events})
		sim.Submit(job)
		return sim.drain()[0], sim
	}
	plain, _ := run(false)
	cloned, sim := run(true)
	if plain.Err != nil || cloned.Err != nil {
		t.Fatalf("errs: %v / %v", plain.Err, cloned.Err)
	}
	if cloned.Exec >= plain.Exec {
		t.Errorf("cloned exec %v not below unassisted %v", cloned.Exec, plain.Exec)
	}
	started, won := sim.clonesStarted, sim.clonesWon
	if started == 0 || won == 0 {
		t.Errorf("speculation stats started=%d won=%d, want both > 0", started, won)
	}
	if won > started {
		t.Errorf("won %d > started %d", won, started)
	}
	checkSlotsDrained(t, sim.Simulator)
	if len(sim.inflight) != 0 {
		t.Errorf("%d attempts tracked after drain", len(sim.inflight))
	}
}

// A crash landing on speculation pairs must not re-queue a task twice (the
// survivor carries it; only a fully-dead pair re-queues): the job completes
// and the slot accounting balances.
func TestCrashOnSpeculationPairs(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	job := Job{ID: "j", App: apps.Grep(), Input: 4 * units.GB}

	clean := newTestSim(t, p, Config{})
	clean.Submit(job)
	base := clean.drain()[0]

	mid := base.Start + base.MapPhase/4
	sim := newTestSim(t, p, Config{Clone: true, Faults: []faults.Event{
		{At: mid, Kind: faults.CPUSlow, Cluster: faults.ClusterOut, Count: 0, Factor: 4},
		{At: mid + base.MapPhase/8, Kind: faults.MachineCrash, Cluster: faults.ClusterOut, Count: 9},
	}})
	sim.Submit(job)
	res := sim.drain()[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	checkSlotsDrained(t, sim.Simulator)
	if len(sim.inflight) != 0 {
		t.Errorf("%d attempts tracked after drain", len(sim.inflight))
	}
}

// nic and rack windows act at planning level: jobs submitted inside the
// window plan slower, jobs after it plan healthy, and the degraded view
// carries a distinct gray name.
func TestGrayPlanningView(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	job := Job{ID: "j", App: apps.Sort(), Input: 64 * units.GB} // shuffle-heavy: network-bound

	clean := newTestSim(t, p, Config{})
	clean.Submit(job)
	base := clean.drain()[0]

	sim := newTestSim(t, p, Config{
		Faults: []faults.Event{
			{At: 0, Kind: faults.NICThrottle, Cluster: faults.ClusterOut, Count: 1, Factor: 4},
			{At: 12 * time.Hour, Kind: faults.NICOk, Cluster: faults.ClusterOut, Count: 1},
		},
	})
	during := job
	during.Submit = time.Minute
	after := job
	after.ID = "k"
	after.Submit = 13 * time.Hour
	sim.Submit(during)
	sim.Submit(after)
	res := sim.drain()
	if res[0].Err != nil || res[1].Err != nil {
		t.Fatalf("errs: %v / %v", res[0].Err, res[1].Err)
	}
	if res[0].Exec <= base.Exec {
		t.Errorf("exec under ×4 nic throttle %v not above healthy %v", res[0].Exec, base.Exec)
	}
	if res[1].Exec != base.Exec {
		t.Errorf("exec after heal %v != healthy %v", res[1].Exec, base.Exec)
	}

	probe := newTestSim(t, p, Config{})
	probe.nicSlow, probe.rackSlow = 2, 4
	view, err := probe.PlatformNow()
	if err != nil {
		t.Fatal(err)
	}
	if view == p || view.Name == p.Name {
		t.Errorf("gray view %q aliases the clean platform", view.Name)
	}
	if view.Spec.AggregateNIC() >= p.Spec.AggregateNIC() {
		t.Error("gray view did not shrink aggregate network bandwidth")
	}
	if !probe.GrayActive() {
		t.Error("GrayActive false with planning factors set")
	}
	if probe.GraySlowdown() != 1 {
		t.Errorf("GraySlowdown %v affected by planning-level factors", probe.GraySlowdown())
	}
}

// Gray schedules replay deterministically, clones included.
func TestGrayDeterministic(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	run := func() []Result {
		sim := newTestSim(t, p, Config{
			Policy: Fair,
			Clone:  true,
			Faults: faults.GrayDemo().ForCluster(faults.ClusterOut),
		})
		sim.Submit(Job{ID: "a", App: apps.Sort(), Input: 64 * units.GB})
		sim.Submit(Job{ID: "b", App: apps.Grep(), Input: 32 * units.GB, Submit: time.Hour})
		sim.Submit(Job{ID: "c", App: apps.Wordcount(), Input: 16 * units.GB, Submit: 2 * time.Hour})
		return sim.drain()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("gray replays diverged")
	}
}
