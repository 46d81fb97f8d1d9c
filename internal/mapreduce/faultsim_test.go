package mapreduce

import (
	"testing"
	"time"

	"hybridmr/internal/apps"
	"hybridmr/internal/faults"
	"hybridmr/internal/storage/ofs"
	"hybridmr/internal/units"
)

// A mid-job crash kills in-flight tasks and re-executes completed maps, so
// the job takes longer than on a healthy cluster and records task retries.
func TestCrashSlowsJob(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	job := Job{ID: "j", App: apps.Grep(), Input: 64 * units.GB}

	clean := newTestSim(t, p, Config{})
	clean.Submit(job)
	base := clean.drain()[0]

	crashed := newTestSim(t, p, Config{
		Faults: []faults.Event{
			{At: base.Exec / 2, Kind: faults.MachineCrash, Cluster: faults.ClusterOut, Count: 6},
		},
	})
	crashed.Submit(job)
	res := crashed.drain()[0]
	if res.Err != nil {
		t.Fatalf("crash mid-job must not fail the job: %v", res.Err)
	}
	if res.Exec <= base.Exec {
		t.Errorf("crashed exec %v not above clean %v", res.Exec, base.Exec)
	}
	if res.TaskRetries == 0 {
		t.Error("no task retries recorded for a mid-map-phase crash of half the cluster")
	}
	if got := crashed.MachinesDown(); got != 6 {
		t.Errorf("MachinesDown = %d, want 6", got)
	}
}

// Recovery restores the slot pools: a crash+recover run finishes later than
// clean but earlier than a crash that never heals.
func TestRecoveryRestoresCapacity(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	job := Job{ID: "j", App: apps.Sort(), Input: 64 * units.GB}

	clean := newTestSim(t, p, Config{})
	clean.Submit(job)
	base := clean.drain()[0]

	run := func(events []faults.Event) Result {
		sim := newTestSim(t, p, Config{Faults: events})
		sim.Submit(job)
		return sim.drain()[0]
	}
	crashAt := base.Exec / 4
	healed := run([]faults.Event{
		{At: crashAt, Kind: faults.MachineCrash, Cluster: faults.ClusterOut, Count: 6},
		{At: crashAt + 2*time.Minute, Kind: faults.MachineRecover, Cluster: faults.ClusterOut, Count: 6},
	})
	unhealed := run([]faults.Event{
		{At: crashAt, Kind: faults.MachineCrash, Cluster: faults.ClusterOut, Count: 6},
	})
	if healed.Err != nil || unhealed.Err != nil {
		t.Fatalf("errs: %v / %v", healed.Err, unhealed.Err)
	}
	if !(base.Exec < healed.Exec && healed.Exec < unhealed.Exec) {
		t.Errorf("want clean %v < healed %v < unhealed %v", base.Exec, healed.Exec, unhealed.Exec)
	}
}

// Jobs arriving while storage is degraded are planned against the degraded
// file system and run slower; after recovery, new jobs plan healthy again.
func TestStorageDegradationAffectsPlanning(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	job := Job{ID: "j", App: apps.Grep(), Input: 32 * units.GB}

	clean := newTestSim(t, p, Config{})
	clean.Submit(job)
	base := clean.drain()[0]

	sim := newTestSim(t, p, Config{
		Faults: []faults.Event{
			{At: 0, Kind: faults.OFSServerDown, Cluster: faults.ClusterAll, Count: 24},
			{At: 6 * time.Hour, Kind: faults.OFSServerUp, Cluster: faults.ClusterAll, Count: 24},
		},
	})
	during := job
	during.Submit = time.Minute
	after := job
	after.ID = "k"
	after.Submit = 7 * time.Hour
	sim.Submit(during)
	sim.Submit(after)
	res := sim.drain()
	if res[0].Err != nil || res[1].Err != nil {
		t.Fatalf("errs: %v / %v", res[0].Err, res[1].Err)
	}
	if res[0].Exec <= base.Exec {
		t.Errorf("exec during 24-server loss %v not above healthy %v", res[0].Exec, base.Exec)
	}
	if res[1].Exec != base.Exec {
		t.Errorf("exec after recovery %v != healthy %v", res[1].Exec, base.Exec)
	}
}

// Storage events for the other file system are ignored: OFS losses cannot
// touch an HDFS platform.
func TestStorageEventsFilteredByFS(t *testing.T) {
	p := MustArch(OutHDFS, DefaultCalibration())
	job := Job{ID: "j", App: apps.Grep(), Input: 32 * units.GB}

	clean := newTestSim(t, p, Config{})
	clean.Submit(job)
	base := clean.drain()[0]

	sim := newTestSim(t, p, Config{
		Faults: []faults.Event{
			{At: 0, Kind: faults.OFSServerDown, Cluster: faults.ClusterAll, Count: 31},
		},
	})
	sim.Submit(job)
	res := sim.drain()[0]
	if res.Exec != base.Exec {
		t.Errorf("OFS loss changed an HDFS platform: %v vs %v", res.Exec, base.Exec)
	}
	if sim.StorageDown() != 0 {
		t.Errorf("StorageDown = %d on an HDFS platform under OFS events", sim.StorageDown())
	}
}

// The constructor rejects fault timelines that are not survivable or not coherent —
// errors, never panics.
func TestScheduleFaultsValidation(t *testing.T) {
	p := MustArch(UpOFS, DefaultCalibration()) // 2 machines, 32 OFS servers
	cases := []struct {
		name   string
		events []faults.Event
	}{
		{"all machines down", []faults.Event{
			{At: time.Hour, Kind: faults.MachineCrash, Cluster: faults.ClusterUp, Count: 2},
		}},
		{"cumulative zero survivors", []faults.Event{
			{At: time.Hour, Kind: faults.MachineCrash, Cluster: faults.ClusterUp, Count: 1},
			{At: 2 * time.Hour, Kind: faults.MachineCrash, Cluster: faults.ClusterUp, Count: 1},
		}},
		{"recovery before crash", []faults.Event{
			{At: time.Hour, Kind: faults.MachineRecover, Cluster: faults.ClusterUp, Count: 1},
		}},
		{"storage recovery before loss", []faults.Event{
			{At: time.Hour, Kind: faults.OFSServerUp, Cluster: faults.ClusterAll, Count: 1},
		}},
		{"all storage down", []faults.Event{
			{At: time.Hour, Kind: faults.OFSServerDown, Cluster: faults.ClusterAll, Count: 32},
		}},
		{"out of order", []faults.Event{
			{At: 2 * time.Hour, Kind: faults.MachineCrash, Cluster: faults.ClusterUp, Count: 1},
			{At: time.Hour, Kind: faults.MachineRecover, Cluster: faults.ClusterUp, Count: 1},
		}},
		{"malformed event", []faults.Event{
			{At: time.Hour, Kind: faults.MachineCrash, Cluster: faults.ClusterUp, Count: 0},
		}},
	}
	for _, tt := range cases {
		if err := buildErr(p, Config{Faults: tt.events}); err == nil {
			t.Errorf("%s: accepted", tt.name)
		}
	}
}

// The same fault schedule replays identically: results are deterministic.
func TestFaultsDeterministic(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	run := func() []Result {
		sim := newTestSim(t, p, Config{Policy: Fair, Faults: faults.Demo().ForCluster(faults.ClusterOut)})
		sim.Submit(Job{ID: "a", App: apps.Sort(), Input: 64 * units.GB})
		sim.Submit(Job{ID: "b", App: apps.Grep(), Input: 32 * units.GB, Submit: time.Hour})
		return sim.drain()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("result counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Exec != b[i].Exec || a[i].TaskRetries != b[i].TaskRetries {
			t.Errorf("job %s diverged: %v/%d vs %v/%d",
				a[i].Job.ID, a[i].Exec, a[i].TaskRetries, b[i].Exec, b[i].TaskRetries)
		}
	}
}

// Slot accounting survives a crash/recovery cycle: after the run the free
// pools equal the (restored) capacities.
func TestSlotInvariantAfterFaults(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	sim := newTestSim(t, p, Config{
		Faults: []faults.Event{
			{At: 10 * time.Minute, Kind: faults.MachineCrash, Cluster: faults.ClusterOut, Count: 6},
			{At: 2 * time.Hour, Kind: faults.MachineRecover, Cluster: faults.ClusterOut, Count: 6},
		},
	})
	sim.Submit(Job{ID: "a", App: apps.Sort(), Input: 64 * units.GB})
	sim.Submit(Job{ID: "b", App: apps.Wordcount(), Input: 32 * units.GB, Submit: 30 * time.Minute})
	res := sim.drain()
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.Job.ID, r.Err)
		}
	}
	checkSlotsDrained(t, sim.Simulator)
	if m, r := sim.slots[kMap].cap, sim.slots[kRed].cap; m != p.Spec.MapSlots() || r != p.Spec.ReduceSlots() {
		t.Errorf("capacity not restored: map %d want %d, red %d want %d",
			m, p.Spec.MapSlots(), r, p.Spec.ReduceSlots())
	}
	if len(sim.inflight) != 0 {
		t.Errorf("%d attempts still tracked after drain", len(sim.inflight))
	}
}

// PlatformNow tracks the degradation level and memoizes views.
func TestPlatformNow(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	sim := newTestSim(t, p, Config{})
	if got, _ := sim.PlatformNow(); got != p {
		t.Error("healthy PlatformNow is not the base platform")
	}
	sim.machinesDown, sim.storageDown = 3, 4
	d1, err := sim.PlatformNow()
	if err != nil {
		t.Fatal(err)
	}
	if d1.Spec.Machines != 9 {
		t.Errorf("degraded machines = %d, want 9", d1.Spec.Machines)
	}
	if got := d1.FS.(*ofs.System).Config().Servers; got != 28 {
		t.Errorf("degraded OFS servers = %d, want 28", got)
	}
	if d2, _ := sim.PlatformNow(); d2 != d1 {
		t.Error("degraded view not memoized")
	}
}

// The result sink receives every finished job with its completion instant,
// and a simulator cannot be built without one.
func TestResultHook(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	st := NewReplayState()
	var got []Result
	sim, err := st.Simulator(p, Config{}, func(r Result, now time.Duration) {
		if now != r.End {
			t.Errorf("sink now %v != result end %v", now, r.End)
		}
		got = append(got, r)
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Submit(Job{ID: "j", App: apps.Grep(), Input: 8 * units.GB})
	st.Engine().Run()
	if len(got) != 1 {
		t.Fatalf("sink saw %d results, want 1", len(got))
	}

	defer func() {
		if recover() == nil {
			t.Error("Simulator accepted a nil result sink")
		}
	}()
	st.Simulator(p, Config{}, nil)
}
