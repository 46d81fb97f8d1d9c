package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"hybridmr/internal/apps"
	"hybridmr/internal/faults"
	"hybridmr/internal/mapreduce"
	"hybridmr/internal/sweep"
	"hybridmr/internal/units"
	"hybridmr/internal/workload"
)

// orderScenario is one randomized workload for the result-order property:
// jobs in ByArrival order whose Submit times fall on a few instants, so ties
// are common, plus a random permutation for the shuffled inputs.
type orderScenario struct {
	Jobs    []workload.Job
	Perm    []int
	Faulted bool
}

// Generate implements quick.Generator: 1–24 jobs on six arrival instants,
// with unique IDs that do not follow arrival order.
func (orderScenario) Generate(r *rand.Rand, _ int) reflect.Value {
	profiles := []apps.Profile{apps.Wordcount(), apps.Grep(), apps.Sort(), apps.DFSIOWrite()}
	n := 1 + r.Intn(24)
	ids := r.Perm(n)
	jobs := make([]workload.Job, n)
	for i := range jobs {
		jobs[i] = workload.Job{
			ID:         fmt.Sprintf("j%02d", ids[i]),
			App:        profiles[r.Intn(len(profiles))],
			Input:      units.Bytes(1+r.Intn(40)) * units.GB,
			Submit:     time.Duration(r.Intn(6)) * 2 * time.Minute,
			RatioKnown: r.Intn(2) == 1,
		}
	}
	slices.SortFunc(jobs, func(a, b workload.Job) int {
		if a.Submit != b.Submit {
			return int(a.Submit - b.Submit)
		}
		return strings.Compare(a.ID, b.ID)
	})
	return reflect.ValueOf(orderScenario{Jobs: jobs, Perm: r.Perm(n), Faulted: r.Intn(2) == 1})
}

// shuffled returns the jobs in Perm order: ties land in any order.
func (sc orderScenario) shuffled() []workload.Job {
	out := make([]workload.Job, len(sc.Jobs))
	for i, p := range sc.Perm {
		out[i] = sc.Jobs[p]
	}
	return out
}

// tiesKept returns the jobs in Perm order, except that jobs sharing a Submit
// instant keep their ByArrival (ID) order among themselves. The simulator
// starts same-instant arrivals in input order, so this input replays exactly
// like the sorted one while still needing the sort.
func (sc orderScenario) tiesKept() []workload.Job {
	out := sc.shuffled()
	byInstant := map[time.Duration][]int{}
	for i, j := range out {
		byInstant[j.Submit] = append(byInstant[j.Submit], i)
	}
	next := map[time.Duration]int{}
	for _, j := range sc.Jobs {
		slots := byInstant[j.Submit]
		out[slots[next[j.Submit]]] = j
		next[j.Submit]++
	}
	return out
}

// tiesReversed returns the jobs in Submit order with every group of
// same-instant jobs reversed: sorted by time, but not by ID.
func (sc orderScenario) tiesReversed() []workload.Job {
	out := slices.Clone(sc.Jobs)
	for i := 0; i < len(out); {
		j := i + 1
		for j < len(out) && out[j].Submit == out[i].Submit {
			j++
		}
		slices.Reverse(out[i:j])
		i = j
	}
	return out
}

// options returns the scenario's hybrid and baseline replay options.
func (sc orderScenario) options(t *testing.T) (FaultRun, BaselineRun) {
	t.Helper()
	opt := FaultRun{}
	run := BaselineRun{Policy: mapreduce.Fair}
	if sc.Faulted {
		s, err := faults.NewSchedule([]faults.Event{
			{At: 3 * time.Minute, Kind: faults.MachineCrash, Cluster: faults.ClusterUp, Count: 1},
			{At: 4 * time.Minute, Kind: faults.MachineCrash, Cluster: faults.ClusterOut, Count: 4},
			{At: 40 * time.Minute, Kind: faults.MachineRecover, Cluster: faults.ClusterUp, Count: 1},
			{At: 40 * time.Minute, Kind: faults.MachineRecover, Cluster: faults.ClusterOut, Count: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		inj := Inject{FailureRate: 0.05, Seed: 3}
		opt = FaultRun{Schedule: s, FailureAware: true, Inject: inj}
		run.Faults, run.Inject = s.ForBaseline(), inj
	}
	return opt, run
}

// run replays jobs through both slice-returning entry points.
func (sc orderScenario) run(t *testing.T, h *Hybrid, base *mapreduce.Platform, jobs []workload.Job) ([]JobResult, []mapreduce.Result) {
	t.Helper()
	opt, run := sc.options(t)
	hy, err := h.RunFaulted(jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := RunBaselineChecked(base, jobs, run.Policy, run.Faults, run.Inject, nil, sweep.Budget{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return hy, bs
}

// sinkReplay replays jobs through both sink entry points and returns each
// job's delivered record at its index, with how often each index arrived.
func (sc orderScenario) sinkReplay(t *testing.T, h *Hybrid, base *mapreduce.Platform, jobs []workload.Job) (hy []JobResult, bs []mapreduce.Result, hyN, bsN []int) {
	t.Helper()
	opt, run := sc.options(t)
	hy, hyN = make([]JobResult, len(jobs)), make([]int, len(jobs))
	if _, err := h.Replay(jobs, opt, func(i int, r *JobResult) { hy[i] = *r; hyN[i]++ }); err != nil {
		t.Fatal(err)
	}
	bs, bsN = make([]mapreduce.Result, len(jobs)), make([]int, len(jobs))
	if _, err := ReplayBaseline(base, jobs, run, func(i int, r *mapreduce.Result) { bs[i] = *r; bsN[i]++ }); err != nil {
		t.Fatal(err)
	}
	return hy, bs, hyN, bsN
}

// checkSinks reports whether each sink delivered every index exactly once,
// the record at index i belongs to jobs[i], and the records sorted by
// mapreduce.ByArrival equal the slice form's results.
func checkSinks(t *testing.T, name string, jobs []workload.Job, hy []JobResult, bs []mapreduce.Result, hyN, bsN []int, hyWant []JobResult, bsWant []mapreduce.Result) bool {
	t.Helper()
	ok := true
	for i, j := range jobs {
		if hyN[i] != 1 || bsN[i] != 1 {
			t.Errorf("%s input: job %s delivered %d times to the hybrid sink, %d to the baseline sink", name, j.ID, hyN[i], bsN[i])
			ok = false
		}
		if hy[i].Job.ID != j.ID || bs[i].Job.ID != j.ID {
			t.Errorf("%s input: index %d holds %s (hybrid) and %s (baseline), want %s", name, i, hy[i].Job.ID, bs[i].Job.ID, j.ID)
			ok = false
		}
	}
	hySorted := slices.Clone(hy)
	slices.SortFunc(hySorted, func(a, b JobResult) int { return mapreduce.ByArrival(a.Result, b.Result) })
	bsSorted := slices.Clone(bs)
	slices.SortFunc(bsSorted, mapreduce.ByArrival)
	if !reflect.DeepEqual(hySorted, hyWant) || !reflect.DeepEqual(bsSorted, bsWant) {
		t.Errorf("%s input: sink records in ByArrival order differ from the slice forms' results", name)
		ok = false
	}
	return ok
}

// isArrivalSort reports whether rs equals sorting the same results with
// mapreduce.ByArrival and holds each input job exactly once.
func isArrivalSort(rs []mapreduce.Result, jobs []workload.Job) bool {
	sorted := slices.Clone(rs)
	slices.SortFunc(sorted, mapreduce.ByArrival)
	if !reflect.DeepEqual(sorted, rs) || len(rs) != len(jobs) {
		return false
	}
	seen := make(map[string]bool, len(rs))
	for _, r := range rs {
		seen[r.Job.ID] = true
	}
	for _, j := range jobs {
		if !seen[j.ID] {
			return false
		}
	}
	return true
}

// TestReplayResultOrderProperty pins index-placed results: for sorted,
// shuffled and tie-heavy inputs (including ties out of ID order), RunFaulted
// and RunBaselineChecked return exactly the ByArrival sort of their results,
// an unsorted input that replays the same schedule gives per-job results
// identical to the sorted input's, and the sink forms (Replay,
// ReplayBaseline) deliver each job once at its own index with the record the
// slice form holds for it.
func TestReplayResultOrderProperty(t *testing.T) {
	h := newHybridT(t)
	th, err := mapreduce.NewTHadoop(mapreduce.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	hybridResults := func(rs []JobResult) []mapreduce.Result {
		out := make([]mapreduce.Result, len(rs))
		for i := range rs {
			out[i] = rs[i].Result
		}
		return out
	}
	f := func(sc orderScenario) bool {
		ok := true
		hySorted, bsSorted := sc.run(t, h, th, sc.Jobs)
		inputs := map[string][]workload.Job{
			"sorted": sc.Jobs, "shuffled": sc.shuffled(),
			"ties kept": sc.tiesKept(), "ties reversed": sc.tiesReversed(),
		}
		for name, jobs := range inputs {
			hy, bs := hySorted, bsSorted
			if name != "sorted" {
				hy, bs = sc.run(t, h, th, jobs)
			}
			if !isArrivalSort(hybridResults(hy), jobs) {
				t.Errorf("%s input: RunFaulted results are not their ByArrival sort", name)
				ok = false
			}
			if !isArrivalSort(bs, jobs) {
				t.Errorf("%s input: RunBaselineChecked results are not their ByArrival sort", name)
				ok = false
			}
			if name == "ties kept" && (!reflect.DeepEqual(hy, hySorted) || !reflect.DeepEqual(bs, bsSorted)) {
				t.Errorf("unsorted input replaying the sorted schedule changed per-job results")
				ok = false
			}
			hyRec, bsRec, hyN, bsN := sc.sinkReplay(t, h, th, jobs)
			if !checkSinks(t, name, jobs, hyRec, bsRec, hyN, bsN, hy, bs) {
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestGeneratedWorkloadIsArrivalOrdered pins the fast path the replays
// rely on: the generator's jobs already come in ByArrival order, so their
// result slots need no sort.
func TestGeneratedWorkloadIsArrivalOrdered(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Jobs = 2000
	jobs, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !arrivalOrdered(jobs) {
		t.Error("workload.Generate output is not in ByArrival order")
	}
	swapped := slices.Clone(jobs[:3])
	swapped[1], swapped[2] = swapped[2], swapped[1]
	if swapped[1].Submit != swapped[2].Submit && arrivalOrdered(swapped) {
		t.Error("arrivalOrdered accepted jobs out of Submit order")
	}
	tie := []workload.Job{{ID: "b"}, {ID: "a"}}
	if arrivalOrdered(tie) {
		t.Error("arrivalOrdered accepted a Submit tie out of ID order")
	}
}

// TestReplayFlagsDoubleReport drives the baseline replay's own result path
// (the simulator sink ReplayBaseline builds) with one job reported twice.
// The result count still matches the job count (one job reported twice, one
// never), so only the delivered-index check catches it; a missing result is
// caught by the count at drain. The sink sees every delivery, Tag cleared.
func TestReplayFlagsDoubleReport(t *testing.T) {
	var got []int
	sink := func(i int, r *mapreduce.Result) {
		if r.Job.Tag != 0 {
			t.Errorf("sink got Tag %d, want it cleared", r.Job.Tag)
		}
		got = append(got, i)
	}
	inv := mapreduce.NewInvariantChecker()
	b := &baselineReplay{sink: sink, tally: newTally(2, inv, "THadoop")}
	r := mapreduce.Result{Job: mapreduce.Job{ID: "j1", Tag: 1}, Platform: "THadoop"}
	b.record(r, 0)
	if !inv.Ok() {
		t.Fatalf("first report flagged: %v", inv.Violations())
	}
	b.record(r, time.Second)
	b.tally.check()
	v := inv.Violations()
	if len(v) != 1 || v[0].Invariant != "job-conservation" || !strings.Contains(v[0].Detail, "j1 reported twice") {
		t.Errorf("violations = %v, want one job-conservation for j1 reported twice", v)
	}
	if !slices.Equal(got, []int{1, 1}) {
		t.Errorf("sink indices = %v, want [1 1]", got)
	}

	// One result of two: the count at drain flags it.
	short := mapreduce.NewInvariantChecker()
	b = &baselineReplay{sink: sink, tally: newTally(2, short, "THadoop")}
	b.record(r, 0)
	b.tally.check()
	v = short.Violations()
	if len(v) != 1 || v[0].Invariant != "job-conservation" || !strings.Contains(v[0].Detail, "2 jobs submitted, 1 results") {
		t.Errorf("violations = %v, want one job-conservation count mismatch", v)
	}

	// Without a checker the replay only delivers.
	got = nil
	quiet := &baselineReplay{sink: sink, tally: newTally(2, nil, "THadoop")}
	quiet.record(r, 0)
	quiet.record(r, 0)
	quiet.tally.check()
	if quiet.tally.filled != nil || !slices.Equal(got, []int{1, 1}) {
		t.Errorf("unchecked replay: filled %v, sink indices %v", quiet.tally.filled, got)
	}
}
