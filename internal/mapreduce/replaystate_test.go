package mapreduce

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"hybridmr/internal/apps"
	"hybridmr/internal/faults"
	"hybridmr/internal/obs"
	"hybridmr/internal/simclock"
	"hybridmr/internal/units"
)

// replayScenario is one randomized replay: a workload plus the knobs that
// exercise every pooled structure — policy (ready-set heaps), fault schedule
// (attempt kills, degraded views), and injection (retries, stragglers,
// speculative clones).
type replayScenario struct {
	Seeds     []uint32
	Fair      bool
	Crash     uint8
	Failure   uint8
	Jitter    uint8
	Speculate bool
}

// config is the scenario's simulator configuration. Failures draw from
// seed 42, stragglers from 43.
func (sc replayScenario) config() Config {
	cfg := Config{Inject: Inject{
		FailureRate:   float64(sc.Failure%3) * 0.01,
		StragglerFrac: float64(sc.Jitter%3) * 0.1,
		Speculate:     sc.Speculate,
		Seed:          42,
	}}
	if sc.Fair {
		cfg.Policy = Fair
	}
	if n := int(sc.Crash % 4); n > 0 {
		cfg.Faults = []faults.Event{
			{At: 20 * time.Minute, Kind: faults.MachineCrash, Cluster: faults.ClusterOut, Count: n},
			{At: 3 * time.Hour, Kind: faults.MachineRecover, Cluster: faults.ClusterOut, Count: n},
		}
	}
	return cfg
}

// run builds a simulator for p on st with the scenario's configuration,
// replays the scenario's jobs and returns the results in ByArrival order.
func (sc replayScenario) run(t testing.TB, st *ReplayState, p *Platform) []Result {
	t.Helper()
	sim := testSimOn(t, st, p, sc.config())
	sc.submit(sim.Simulator)
	return sim.drain()
}

// submit submits the scenario's jobs.
func (sc replayScenario) submit(sim *Simulator) {
	profiles := []apps.Profile{apps.Wordcount(), apps.Grep(), apps.Sort(), apps.DFSIOWrite()}
	for i, s := range sc.Seeds {
		sim.Submit(Job{
			ID:     string(rune('a'+i%26)) + string(rune('0'+i/26)),
			App:    profiles[int(s)%len(profiles)],
			Input:  units.Bytes(s)*units.MB%(8*units.GB) + units.KB,
			Submit: time.Duration(s%600) * time.Second,
		})
	}
}

// TestReplayStateEquivalenceProperty is the reuse contract as a property:
// for any workload, policy, fault schedule and injection mix, a replay on a
// Reset() ReplayState — dirtied by a previous, different replay — produces
// results identical to the same replay on a fresh simulator.
func TestReplayStateEquivalenceProperty(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	st := NewReplayState()
	f := func(sc replayScenario, dirty replayScenario) bool {
		if len(sc.Seeds) == 0 || len(sc.Seeds) > 30 || len(dirty.Seeds) > 20 {
			return true
		}
		// Dirty the pooled state with an unrelated replay, then reset it.
		dirty.run(t, st, p)
		st.Reset()

		want := sc.run(t, NewReplayState(), p)
		got := sc.run(t, st, p)
		st.Reset()
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSimulatorConfigErrors pins the constructor's validation: each invalid
// Config is rejected with the error text its build step has always
// reported, and a failed build leaves the state as it found it, so a replay
// on the same ReplayState still equals one on a fresh state.
func TestSimulatorConfigErrors(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration()) // 12 machines
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"failure rate 1.0", Config{Inject: Inject{FailureRate: 1.0}},
			"mapreduce: failure rate 1 outside [0,1)"},
		{"straggler fraction 11", Config{Inject: Inject{StragglerFrac: 11}},
			"mapreduce: straggler fraction 11 outside [0,10]"},
		{"no machine left", Config{Faults: []faults.Event{
			{At: time.Hour, Kind: faults.MachineCrash, Cluster: faults.ClusterOut, Count: 12},
		}}, "mapreduce: out-OFS: fault schedule leaves no machines at 1h0m0s (12 of 12 down)"},
		{"recovery with no crash", Config{Faults: []faults.Event{
			{At: time.Hour, Kind: faults.MachineRecover, Cluster: faults.ClusterOut, Count: 1},
		}}, "mapreduce: out-OFS: machine recovery at 1h0m0s without a matching crash"},
	}
	sc := replayScenario{Seeds: []uint32{7, 19, 3, 250, 77, 41, 960, 12}, Fair: true, Crash: 2, Failure: 1, Jitter: 1, Speculate: true}
	want := sc.run(t, NewReplayState(), p)
	st := NewReplayState()
	for _, tt := range cases {
		sim, err := st.Simulator(p, tt.cfg, func(Result, time.Duration) {})
		if err == nil || err.Error() != tt.want {
			t.Errorf("%s: error %v, want %q", tt.name, err, tt.want)
		}
		if sim != nil {
			t.Errorf("%s: failed build returned a simulator", tt.name)
		}
		if n := st.Engine().Pending(); n != 0 {
			t.Errorf("%s: failed build left %d pending events", tt.name, n)
		}
		if got := sc.run(t, st, p); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: replay after the failed build differs from a fresh replay", tt.name)
		}
		st.Reset()
	}
}

// TestReplayStateResetAfterAbandonedRun pins the watchdog-unwind path: a
// replay aborted mid-flight by an event budget leaves runs and attempts in
// flight, and Reset must reclaim them all so the next replay on the same
// state is still identical to a fresh one.
func TestReplayStateResetAfterAbandonedRun(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	sc := replayScenario{Seeds: []uint32{7, 19, 3, 250, 77, 41, 960, 12}, Fair: true, Jitter: 1, Speculate: true}
	want := sc.run(t, NewReplayState(), p)

	st := NewReplayState()
	st.Engine().SetWatchdog(&simclock.Watchdog{MaxEvents: 40})
	func() {
		defer func() {
			if _, ok := recover().(*simclock.BudgetError); !ok {
				t.Fatal("watchdog did not fire mid-replay")
			}
		}()
		sc.run(t, st, p)
	}()
	st.Reset()

	if got := sc.run(t, st, p); !reflect.DeepEqual(got, want) {
		t.Error("replay after abandoned run differs from fresh replay")
	}
}

// TestStatePoolRecycles pins the pool mechanics: WithState resets the state
// on the way out and hands the same object to the next WithState, and a
// handed-out state is pristine (no pending events, clock at zero, and a
// recycled simulator that delivers to its new sink, not the old one).
func TestStatePoolRecycles(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	job := Job{ID: "j", App: apps.Grep(), Input: units.GB}
	var first *ReplayState
	var firstSim *testSim
	if err := WithState(func(st *ReplayState) error {
		first = st
		firstSim = testSimOn(t, st, p, Config{})
		firstSim.Submit(job)
		firstSim.drain()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n := len(firstSim.results); n != 1 {
		t.Fatalf("replay returned %d results", n)
	}

	if err := WithState(func(again *ReplayState) error {
		if again != first {
			t.Error("pool did not recycle the released state")
		}
		if n := again.Engine().Pending(); n != 0 {
			t.Errorf("recycled state has %d pending events", n)
		}
		if now := again.Engine().Now(); now != 0 {
			t.Errorf("recycled state's clock at %v, want 0", now)
		}
		sim2 := testSimOn(t, again, p, Config{})
		if sim2.Simulator != firstSim.Simulator {
			t.Error("reset state did not recycle its simulator shell")
		}
		sim2.Submit(job)
		sim2.drain()
		if n, old := len(sim2.results), len(firstSim.results); n != 1 || old != 1 {
			t.Errorf("recycled simulator delivered %d results to its sink and %d to the old one, want 1 and 1", n, old)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestWithStateRecyclesAfterWatchdogPanic pins the unwind path WithState
// guarantees: a replay stopped mid-flight by a watchdog panic still returns
// its state to the pool, reset, and the next replay on that state matches a
// fresh one.
func TestWithStateRecyclesAfterWatchdogPanic(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	sc := replayScenario{Seeds: []uint32{7, 19, 3, 250, 77, 41, 960, 12}, Fair: true, Jitter: 1, Speculate: true}
	want := sc.run(t, NewReplayState(), p)

	var abandoned *ReplayState
	func() {
		defer func() {
			if _, ok := recover().(*simclock.BudgetError); !ok {
				t.Fatal("watchdog did not fire mid-replay")
			}
		}()
		_ = WithState(func(st *ReplayState) error {
			abandoned = st
			st.Engine().SetWatchdog(&simclock.Watchdog{MaxEvents: 40})
			sc.run(t, st, p)
			return nil
		})
		t.Fatal("WithState returned from a panicking replay")
	}()

	var got []Result
	if err := WithState(func(st *ReplayState) error {
		if st != abandoned {
			t.Error("abandoned state was not returned to the pool")
		}
		if n := st.Engine().Pending(); n != 0 {
			t.Errorf("abandoned state kept %d pending events", n)
		}
		got = sc.run(t, st, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("replay on the recycled state differs from a fresh replay")
	}
}

// TestReplayStateSharedEngine pins the hybrid shape: two simulators on one
// state share the clock, and the pair replays identically after a Reset.
func TestReplayStateSharedEngine(t *testing.T) {
	up := MustArch(UpOFS, DefaultCalibration())
	out := MustArch(OutOFS, DefaultCalibration())
	jobA := Job{ID: "a", App: apps.Wordcount(), Input: 2 * units.GB}
	jobB := Job{ID: "b", App: apps.Sort(), Input: 32 * units.GB, Submit: time.Minute}

	replay := func(st *ReplayState) (Result, Result) {
		upSim, outSim := testSimOn(t, st, up, Config{}), testSimOn(t, st, out, Config{})
		upSim.Submit(jobA)
		outSim.Submit(jobB)
		st.Engine().Run()
		return upSim.results[0], outSim.results[0]
	}

	st := NewReplayState()
	a1, b1 := replay(st)
	st.Reset()
	a2, b2 := replay(st)
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(b1, b2) {
		t.Error("shared-engine replay differs after Reset")
	}
	if a1.Platform != "up-OFS" || b1.Platform != "out-OFS" {
		t.Errorf("results bound to wrong platforms: %s, %s", a1.Platform, b1.Platform)
	}
}

// TestPooledRunsRetainNoJobStorage pins the no-ratchet contract of the
// per-replay task storage: a job run's re-queue stacks, map-output ledger
// and failure counts live in simulator-level storage that Reset empties, so
// after a 20,000-map job no pooled run holds a slice or map sized to it. A
// clean replay (no crash in its schedule) keeps no ledger at all.
func TestPooledRunsRetainNoJobStorage(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	big := Job{ID: "big", App: apps.Grep(), Input: 64 * units.GB, MapTasks: 20000}

	st := NewReplayState()
	sim := testSimOn(t, st, p, Config{
		Inject: Inject{FailureRate: 0.02, Seed: 42},
		Faults: []faults.Event{
			{At: 2 * time.Minute, Kind: faults.MachineCrash, Cluster: faults.ClusterOut, Count: 3},
			{At: 30 * time.Minute, Kind: faults.MachineRecover, Cluster: faults.ClusterOut, Count: 3},
		},
	})
	sim.Submit(big)
	res := sim.drain()
	if len(res) != 1 || res[0].Err != nil || res[0].TaskRetries == 0 {
		t.Fatalf("crash replay: %+v, want one finished job with retries", res)
	}
	// The ledger held every completed map until the job finished.
	if len(sim.taskSlab) < big.MapTasks || len(sim.taskFailures) == 0 {
		t.Fatalf("crash replay: slab %d entries for %d maps, %d failure counts", len(sim.taskSlab), big.MapTasks, len(sim.taskFailures))
	}
	st.Reset()
	for _, s := range st.sims {
		if len(s.jobFree) == 0 {
			t.Fatal("no pooled job runs to inspect")
		}
		for _, run := range s.jobFree {
			v := reflect.ValueOf(run).Elem()
			for i := 0; i < v.NumField(); i++ {
				f := v.Field(i)
				if (f.Kind() == reflect.Slice && f.Cap() > 0) || (f.Kind() == reflect.Map && !f.IsNil()) {
					t.Errorf("pooled jobRun.%s keeps job-sized storage after Reset", v.Type().Field(i).Name)
				}
			}
		}
		if len(s.taskSlab) != 0 || s.slabFree != 0 || len(s.taskFailures) != 0 || s.keepLedger {
			t.Errorf("Reset left task storage: slab %d (free head %d), failures %d, ledger kept %v",
				len(s.taskSlab), s.slabFree, len(s.taskFailures), s.keepLedger)
		}
	}

	sim = testSimOn(t, st, p, Config{})
	sim.Submit(big)
	if res := sim.drain(); len(res) != 1 || res[0].Err != nil {
		t.Fatalf("clean replay: %+v", res)
	}
	if sim.keepLedger || len(sim.taskSlab) != 0 {
		t.Errorf("clean replay wrote %d slab entries (ledger kept %v), want none", len(sim.taskSlab), sim.keepLedger)
	}
}

// TestRecycledSimulatorMatchesFresh is the reset contract with no field
// list: after a replay that turns on every optional mode, ReplayState.Reset
// and Simulator yield a simulator equal to a newly constructed one field by field,
// found by reflection, so a field added later is covered without naming it.
// Only the two cross-replay pools (jobFree, attemptFree) may differ. The
// records those pools hand out again must equal freshly allocated ones too.
func TestRecycledSimulatorMatchesFresh(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	st := NewReplayState()
	sc := replayScenario{Fair: true, Failure: 2, Jitter: 1, Speculate: true}
	for i := range 40 {
		sc.Seeds = append(sc.Seeds, uint32(i*7919+13))
	}
	// Every Config field is set. The crash and the CPU window stay open at
	// the end of the replay, so the capacity and slowdown state is still
	// dirty when Reset runs.
	cfg := sc.config()
	cfg.Trace, cfg.Metrics = obs.NewTracer(), obs.NewRegistry()
	cfg.Invariants = NewInvariantChecker()
	cfg.Clone = true
	cfg.Faults = []faults.Event{
		{At: 5 * time.Minute, Kind: faults.CPUSlow, Cluster: faults.ClusterOut, Count: 0, Factor: 3},
		{At: 20 * time.Minute, Kind: faults.MachineCrash, Cluster: faults.ClusterOut, Count: 2},
	}
	sim := testSimOn(t, st, p, cfg)
	sc.submit(sim.Simulator)
	sim.drain()
	if sim.clonesStarted == 0 {
		t.Fatal("dirtying replay started no speculative clones")
	}

	st.Reset()
	sink := func(Result, time.Duration) {}
	rec, err := st.Simulator(p, Config{}, sink)
	if err != nil {
		t.Fatal(err)
	}
	fresh := newSimulator()
	if err := fresh.init(st.Engine(), p, Config{}, sink); err != nil {
		t.Fatal(err)
	}
	if rec == fresh || len(rec.attemptFree) == 0 || len(rec.jobFree) == 0 {
		t.Fatal("Reset returned no recycled simulator with pooled records")
	}
	sameFields(t, "Simulator", reflect.ValueOf(rec).Elem(), reflect.ValueOf(fresh).Elem(), "jobFree", "attemptFree")

	// Hand every pooled record out again next to a fresh allocation. The
	// two simulators' counters advance in step, so only the owner differs.
	for len(rec.jobFree) > 0 {
		got, want := rec.newJobRun(Job{}, plan{}), fresh.newJobRun(Job{}, plan{})
		if got.sim != rec {
			t.Fatal("recycled jobRun not bound to its simulator")
		}
		sameFields(t, "jobRun", reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem(), "sim")
	}
	for len(rec.attemptFree) > 0 {
		got, want := rec.addAttempt(nil, 0, kRed), fresh.addAttempt(nil, 0, kRed)
		if got.sim != rec {
			t.Fatal("recycled attempt not bound to its simulator")
		}
		sameFields(t, "attempt", reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem(), "sim", "fireFn")
	}
}

// sameFields reports every field of two structs of one type that differs,
// skipping the named top-level fields. Slices and maps compare by length
// (their capacity is storage a reset may keep), funcs by nil-ness (a bound
// method is a different value per object), structs and arrays element by
// element, and everything else by value.
func sameFields(t *testing.T, path string, got, want reflect.Value, skip ...string) {
	t.Helper()
	switch got.Kind() {
	case reflect.Struct:
		for i := range got.NumField() {
			name := got.Type().Field(i).Name
			if !slices.Contains(skip, name) {
				sameFields(t, path+"."+name, got.Field(i), want.Field(i))
			}
		}
	case reflect.Array:
		for i := range got.Len() {
			sameFields(t, fmt.Sprintf("%s[%d]", path, i), got.Index(i), want.Index(i))
		}
	case reflect.Slice, reflect.Map:
		if got.Len() != want.Len() {
			t.Errorf("%s: len %d, fresh %d", path, got.Len(), want.Len())
		}
	case reflect.Func:
		if got.IsNil() != want.IsNil() {
			t.Errorf("%s: nil %v, fresh nil %v", path, got.IsNil(), want.IsNil())
		}
	default:
		if !got.Equal(want) {
			t.Errorf("%s: %v, fresh %v", path, got, want)
		}
	}
}
