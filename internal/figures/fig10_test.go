package figures

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"hybridmr/internal/apps"
	"hybridmr/internal/core"
	"hybridmr/internal/units"
	"hybridmr/internal/workload"
)

// checkSplit is the oracle for runTrace's split hybrid replay. It replays
// jobs on the hybrid's shared clock and again as the two halves apart, and
// reports the first job whose full outcome (routing, times, phases, tasks)
// differs between the two, or whose runTrace exec seconds differ from the
// shared clock's.
func checkSplit(a *ArchSet, jobs []workload.Job) error {
	h := a.Hybrid
	full := h.Run(jobs)
	run, err := runTrace(&ReplaySetup{Jobs: jobs, ArchSet: a})
	if err != nil {
		return err
	}
	split := make([]workload.Job, len(jobs))
	for k, i := range run.order { // run.order[k] is split[k]'s trace index
		split[k] = jobs[i]
	}
	halves := append(h.Run(split[:run.nUp]), h.Run(split[run.nUp:])...)
	for k, i := range run.order {
		if up := k < run.nUp; up != (full[i].Target == core.ScaleUp) {
			return fmt.Errorf("job %s: up = %v, shared clock routed it %v", jobs[i].ID, up, full[i].Target)
		}
		if !reflect.DeepEqual(halves[k], full[i]) {
			return fmt.Errorf("job %s: split replay\n%+v\nshared clock\n%+v", jobs[i].ID, halves[k], full[i])
		}
		if got, want := run.hybrid[i], full[i].Exec.Seconds(); got != want {
			return fmt.Errorf("job %s: runTrace exec %vs, shared clock %vs", jobs[i].ID, got, want)
		}
	}
	return nil
}

// wholeSeconds truncates every arrival to a whole second, so arrivals pile
// onto shared instants with each other and with work already in flight.
func wholeSeconds(jobs []workload.Job) {
	for i := range jobs {
		jobs[i].Submit = jobs[i].Submit.Truncate(time.Second)
	}
}

// TestTraceSplitMatchesHybridRun: with static routing and no balancer, the
// hybrid's halves never read each other's state, so replaying them apart
// (as runTrace does) gives every job the outcome the shared clock gives it.
func TestTraceSplitMatchesHybridRun(t *testing.T) {
	a, err := SharedArches(cal())
	if err != nil {
		t.Fatal(err)
	}
	generate := func(t *testing.T, cfg workload.Config) []workload.Job {
		t.Helper()
		jobs, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return jobs
	}

	t.Run("fig10", func(t *testing.T) {
		if err := checkSplit(a, generate(t, workload.DefaultConfig())); err != nil {
			t.Error(err)
		}
	})

	// 400 jobs in 20 minutes at whole-second arrivals: nearly five times
	// the day's arrival rate, so queues build and arrivals share instants.
	t.Run("whole-second-arrivals", func(t *testing.T) {
		cfg := smallTraceConfig(400)
		cfg.Duration = 20 * time.Minute
		jobs := generate(t, cfg)
		wholeSeconds(jobs)
		if err := checkSplit(a, jobs); err != nil {
			t.Error(err)
		}
	})

	// A job's setup ends at the very instant a wave of another job's map
	// tasks completes, on a full cluster. On the shared clock the arrival
	// only submits the job, one event later at the same instant, so the
	// completions hand their slots to the waiting wave before the new job
	// can ask for one. A replay that started the job at its arrival event
	// would order its setup first and let Fair give it a slot.
	t.Run("arrival-meets-completion", func(t *testing.T) {
		ca, jobs := collision(t)
		if err := checkSplit(ca, jobs); err != nil {
			t.Error(err)
		}
	})

	t.Run("quick", func(t *testing.T) {
		f := func(seed int64, size uint8, whole bool) bool {
			cfg := smallTraceConfig(10 + int(size))
			cfg.Seed = seed
			jobs := generate(t, cfg)
			if whole {
				wholeSeconds(jobs)
			}
			if err := checkSplit(a, jobs); err != nil {
				t.Logf("seed %d, %d jobs, whole-second %v: %v", seed, len(jobs), whole, err)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Error(err)
		}
	})

	t.Run("balancer-refused", func(t *testing.T) {
		balanced := *a.Hybrid
		balanced.Balance = true
		setup := &ReplaySetup{
			Jobs:    generate(t, smallTraceConfig(50)),
			ArchSet: &ArchSet{Hybrid: &balanced, THadoop: a.THadoop, RHadoop: a.RHadoop},
		}
		if _, err := runTrace(setup); err == nil {
			t.Error("runTrace replayed a hybrid with a load balancer")
		}
	})
}

// collision builds a hybrid and a two-job trace for the
// arrival-meets-completion case. Job a fills the scale-up cluster's map
// slots twice over; the calibration's JobSetup is tuned so that the job
// setup time equals a's map task time d. Job c arrives at d, when a's setup
// ends and its first wave starts, so c's setup ends at 2d, with the first
// wave's completions.
func collision(t *testing.T) (*ArchSet, []workload.Job) {
	t.Helper()
	c := cal()
	var set *ArchSet
	var a workload.Job
	var solo core.JobResult
	for try := 0; ; try++ {
		var err error
		if set, err = NewArchSet(c); err != nil {
			t.Fatal(err)
		}
		a = workload.Job{ID: "a", App: apps.Wordcount(), Input: units.GB, RatioKnown: true,
			MapTasks: 2 * set.Hybrid.Up.Spec.MapSlots()}
		solo = set.Hybrid.Run([]workload.Job{a})[0]
		if solo.Target != core.ScaleUp || solo.MapWaves != 2 {
			t.Fatalf("job a: routed %v in %d waves, want scale-up in 2", solo.Target, solo.MapWaves)
		}
		setup, task := solo.Start-solo.Submit, solo.MapPhase/2
		if setup == task {
			break
		}
		if try == 3 {
			t.Fatalf("setup %v never met map task time %v", setup, task)
		}
		// JobSetup is scaled by the CPU factor; one step lands it in practice.
		c.JobSetup += time.Duration(math.Round(float64(task-setup) * set.Hybrid.Up.Spec.Machine.CPUFactor))
	}
	late := workload.Job{ID: "c", App: apps.Wordcount(), Input: 64 * units.MB, RatioKnown: true, Submit: solo.Start}
	return set, []workload.Job{a, late}
}
