package mapreduce

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"hybridmr/internal/apps"
	"hybridmr/internal/faults"
	"hybridmr/internal/units"
)

// testSim is a simulator built the way every replay builds one — on a
// ReplayState, with a result sink — whose sink collects into results.
type testSim struct {
	*Simulator
	results []Result
}

// newTestSim returns a collecting simulator for p, built with cfg on a
// fresh ReplayState.
func newTestSim(t testing.TB, p *Platform, cfg Config) *testSim {
	t.Helper()
	return testSimOn(t, NewReplayState(), p, cfg)
}

// testSimOn returns a collecting simulator for p, built with cfg on st. A
// build error fails the test.
func testSimOn(t testing.TB, st *ReplayState, p *Platform, cfg Config) *testSim {
	t.Helper()
	ts := &testSim{}
	sim, err := st.Simulator(p, cfg, func(r Result, _ time.Duration) { ts.results = append(ts.results, r) })
	if err != nil {
		t.Fatal(err)
	}
	ts.Simulator = sim
	return ts
}

// buildErr returns the error building a simulator for p with cfg reports.
func buildErr(p *Platform, cfg Config) error {
	_, err := NewReplayState().Simulator(p, cfg, func(Result, time.Duration) {})
	return err
}

// drain runs the engine until no event is pending and returns the collected
// results in ByArrival order. A job still running after the drain is a model
// bug, not a workload condition, so it panics.
func (ts *testSim) drain() []Result {
	ts.eng.Run()
	if ts.running != 0 {
		panic(fmt.Sprintf("mapreduce: %d jobs still running after drain", ts.running))
	}
	slices.SortFunc(ts.results, ByArrival)
	return ts.results
}

// checkSlotsDrained fails t unless every slot pool is back at capacity.
func checkSlotsDrained(t testing.TB, s *Simulator) {
	t.Helper()
	for k := range nKinds {
		if sp := s.slots[k]; sp.free != sp.cap {
			t.Errorf("%s slots leaked: %d of %d free", kindName[k], sp.free, sp.cap)
		}
	}
}

// soloMatchesClosedForm replays job alone on a simulator for p, after the
// fault events (all at time 0, so they land before the arrival), and
// reports whether the one result equals view.RunIsolated(job) — same cost
// model, two evaluation strategies — in Exec and all three phases, or in
// the error a rejected size yields.
func soloMatchesClosedForm(t *testing.T, p, view *Platform, events []faults.Event, job Job) bool {
	t.Helper()
	want := view.RunIsolated(job)
	sim := newTestSim(t, p, Config{Faults: events})
	sim.Submit(job)
	res := sim.drain()
	if len(res) != 1 {
		t.Errorf("%s %s: %d results", view.Name, job.ID, len(res))
		return false
	}
	got := res[0]
	if (got.Err == nil) != (want.Err == nil) || got.Err != nil && got.Err.Error() != want.Err.Error() {
		t.Errorf("%s %s (%v): sim error %v, closed form %v", view.Name, job.ID, job.Input, got.Err, want.Err)
		return false
	}
	ok := true
	for _, d := range []struct {
		phase     string
		got, want time.Duration
	}{
		{"exec", got.Exec, want.Exec},
		{"map", got.MapPhase, want.MapPhase},
		{"shuffle", got.ShufflePhase, want.ShufflePhase},
		{"reduce", got.ReducePhase, want.ReducePhase},
	} {
		if d.got != d.want {
			t.Errorf("%s %s (%v): sim %s %v != closed form %v", view.Name, job.ID, job.Input, d.phase, d.got, d.want)
			ok = false
		}
	}
	return ok
}

// An isolated job through the event simulator must match RunIsolated's
// closed form exactly: the fixed points first, then a property over all
// four apps, input sizes from 1 KB to 512 GB (the larger ones rejected by
// up-HDFS, in the same words both ways), every Table I architecture,
// and three views of it — healthy, degraded by machines crashed before the
// arrival, and gray-throttled by a network or bisection window open at the
// arrival. The oracle for a faulted arrival is RunIsolated on Platform.View
// at the level the window leaves.
func TestSimulatorMatchesClosedForm(t *testing.T) {
	upOFS, upHDFS, outOFS, outHDFS := fourArches(t)
	jobs := []Job{
		{ID: "a", App: apps.Wordcount(), Input: 2 * units.GB},
		{ID: "b", App: apps.Grep(), Input: 32 * units.GB},
		{ID: "c", App: apps.DFSIOWrite(), Input: 10 * units.GB},
		{ID: "d", App: apps.Sort(), Input: 64 * units.GB},
		{ID: "e", App: apps.Wordcount(), Input: 100 * units.KB},
	}
	for _, p := range []*Platform{upOFS, outOFS, outHDFS} {
		for _, job := range jobs {
			soloMatchesClosedForm(t, p, p, nil, job)
		}
	}

	arches := []struct {
		p       *Platform
		cluster string
	}{
		{upOFS, faults.ClusterUp}, {upHDFS, faults.ClusterUp},
		{outOFS, faults.ClusterOut}, {outHDFS, faults.ClusterOut},
	}
	profiles := []apps.Profile{apps.Wordcount(), apps.Grep(), apps.Sort(), apps.DFSIOWrite()}
	prop := func(app, arch, view, shift, down, factor uint8, frac uint32) bool {
		a := arches[int(arch)%len(arches)]
		p, cluster := a.p, a.cluster
		mag := units.KB << (shift % 29)
		job := Job{ID: "solo", App: profiles[int(app)%len(profiles)], Input: mag + units.Bytes(frac)%mag}
		var events []faults.Event
		oracle := p
		switch view % 3 {
		case 1: // degraded: k machines crashed before the arrival
			k := 1 + int(down)%(p.Spec.Machines-1)
			events = []faults.Event{{Kind: faults.MachineCrash, Cluster: cluster, Count: k}}
			var err error
			if oracle, err = p.View(k, 0, 1, 1); err != nil {
				t.Fatal(err)
			}
		case 2: // gray: a nic or bisection throttle open at the arrival
			f := 1 + float64(factor%8)/2
			kind, nic, rack := faults.NICThrottle, f, 1.0
			if factor&8 != 0 {
				kind, nic, rack = faults.RackPartition, 1, f
			}
			events = []faults.Event{{Kind: kind, Cluster: cluster, Count: 1, Factor: f}}
			var err error
			if oracle, err = p.View(0, 0, nic, rack); err != nil {
				t.Fatal(err)
			}
		}
		return soloMatchesClosedForm(t, p, oracle, events, job)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Concurrent jobs contend for slots: two identical jobs submitted together
// finish no earlier than either alone, and a cluster-filling job delays a
// small job behind it (the §V THadoop effect).
func TestSimulatorQueueing(t *testing.T) {
	_, _, outOFS, _ := fourArches(t)
	small := Job{ID: "small", App: apps.Grep(), Input: units.GB}
	big := Job{ID: "big", App: apps.Wordcount(), Input: 64 * units.GB}

	alone := newTestSim(t, outOFS, Config{})
	alone.Submit(small)
	soloExec := alone.drain()[0].Exec

	sim := newTestSim(t, outOFS, Config{})
	bigFirst := big
	bigFirst.Submit = 0
	late := small
	late.Submit = 5 * time.Second // arrives while the big job owns the slots
	for _, j := range []Job{bigFirst, late} {
		sim.Submit(j)
	}
	res := sim.drain()
	var smallRes Result
	for _, r := range res {
		if r.Job.ID == "small" {
			smallRes = r
		}
	}
	if smallRes.Exec <= soloExec {
		t.Errorf("queued small job exec %v not above solo %v", smallRes.Exec, soloExec)
	}
}

// Results come back sorted by submission time.
func TestSimulatorResultOrder(t *testing.T) {
	_, _, outOFS, _ := fourArches(t)
	sim := newTestSim(t, outOFS, Config{})
	for i, d := range []time.Duration{30 * time.Second, 0, 10 * time.Second} {
		sim.Submit(Job{ID: string(rune('a' + i)), App: apps.Grep(), Input: units.GB, Submit: d})
	}
	res := sim.drain()
	if len(res) != 3 {
		t.Fatalf("%d results", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Submit < res[i-1].Submit {
			t.Errorf("results unsorted: %v before %v", res[i-1].Submit, res[i].Submit)
		}
	}
	if res[0].Job.ID != "b" || res[1].Job.ID != "c" || res[2].Job.ID != "a" {
		t.Errorf("order = %s %s %s", res[0].Job.ID, res[1].Job.ID, res[2].Job.ID)
	}
}

// A rejected job (up-HDFS capacity) still yields a result with Err set, and
// the simulator drains.
func TestSimulatorRejectedJob(t *testing.T) {
	_, upHDFS, _, _ := fourArches(t)
	sim := newTestSim(t, upHDFS, Config{})
	sim.Submit(Job{ID: "huge", App: apps.Grep(), Input: 200 * units.GB})
	sim.Submit(Job{ID: "ok", App: apps.Grep(), Input: units.GB})
	res := sim.drain()
	if len(res) != 2 {
		t.Fatalf("%d results", len(res))
	}
	var errs, oks int
	for _, r := range res {
		if r.Err != nil {
			errs++
		} else {
			oks++
		}
	}
	if errs != 1 || oks != 1 {
		t.Errorf("errs=%d oks=%d, want 1/1", errs, oks)
	}
}

// Throughput sanity: N identical one-wave jobs on an otherwise empty
// cluster pipeline through the slot pools; makespan grows roughly linearly
// once the cluster saturates.
func TestSimulatorSaturation(t *testing.T) {
	_, _, outOFS, _ := fourArches(t)
	makespan := func(n int) time.Duration {
		sim := newTestSim(t, outOFS, Config{})
		for i := 0; i < n; i++ {
			sim.Submit(Job{ID: string(rune('a' + i)), App: apps.Grep(), Input: 8 * units.GB})
		}
		res := sim.drain()
		var last time.Duration
		for _, r := range res {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			if r.End > last {
				last = r.End
			}
		}
		return last
	}
	m1, m4 := makespan(1), makespan(4)
	if m4 <= m1 {
		t.Errorf("4-job makespan %v not above 1-job %v", m4, m1)
	}
	if m4 > 5*m1 {
		t.Errorf("4-job makespan %v more than 5× 1-job %v — no pipelining?", m4, m1)
	}
}
