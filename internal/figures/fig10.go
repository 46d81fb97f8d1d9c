package figures

import (
	"errors"
	"fmt"
	"slices"

	"hybridmr/internal/core"
	"hybridmr/internal/mapreduce"
	"hybridmr/internal/stats"
	"hybridmr/internal/sweep"
	"hybridmr/internal/textplot"
	"hybridmr/internal/workload"
)

// TraceResult is the §V trace experiment's outcome keyed by job ID, for
// callers that look jobs up by name. Fig10 itself reads the index-aligned
// columns of runTrace and builds none of these maps.
type TraceResult struct {
	Jobs []workload.Job
	// UpClass marks job IDs Algorithm 1 routes to the scale-up cluster.
	UpClass map[string]bool
	// Hybrid, THadoop and RHadoop hold per-job execution seconds.
	Hybrid, THadoop, RHadoop map[string]float64
}

// RunTrace executes the trace experiment: the workload on the hybrid and on
// the two 24-machine baselines, under the Fair scheduler (see runTrace), and
// returns per-job results keyed by job ID. The trace and the architectures
// come from the memoized shared setup (setup.go): a repeated run with the
// same calibration and config skips regeneration entirely.
func RunTrace(cal mapreduce.Calibration, cfg workload.Config) (*TraceResult, error) {
	setup, err := SharedSetup(cal, cfg)
	if err != nil {
		return nil, err
	}
	run, err := runTrace(setup)
	if err != nil {
		return nil, err
	}
	n := len(run.jobs)
	tr := &TraceResult{
		Jobs:    run.jobs,
		UpClass: make(map[string]bool, run.nUp),
		Hybrid:  make(map[string]float64, n),
		THadoop: make(map[string]float64, n),
		RHadoop: make(map[string]float64, n),
	}
	for _, i := range run.order[:run.nUp] {
		tr.UpClass[run.jobs[i].ID] = true
	}
	for i, j := range run.jobs {
		tr.Hybrid[j.ID] = run.hybrid[i]
		tr.THadoop[j.ID] = run.thadoop[i]
		tr.RHadoop[j.ID] = run.rhadoop[i]
	}
	return tr, nil
}

// traceRun is the trace experiment's outcome as columns aligned with jobs:
// entry i of every exec column belongs to jobs[i].
type traceRun struct {
	jobs []workload.Job
	// order lists the trace indices of the jobs Algorithm 1 routes to the
	// scale-up cluster, then of the rest, each group in trace order; nUp
	// counts the scale-up jobs.
	order []int
	nUp   int
	// hybrid, thadoop and rhadoop hold execution seconds.
	hybrid, thadoop, rhadoop []float64
	// cols are the four replays' sinks, in runTrace's replay order.
	cols [4]column
}

// column is one replay's sink into an exec column: a result for the job at
// index k of the replay's workload lands at trace index at[k] (at nil: at
// k). err keeps the first failed job the replay delivered.
type column struct {
	exec   []float64
	at     []int
	replay string
	err    error
}

// put is the replay's result sink.
func (c *column) put(k int, r *mapreduce.Result) {
	if r.Err != nil {
		if c.err == nil {
			c.err = fmt.Errorf("figures: %s job %s: %w", c.replay, r.Job.ID, r.Err)
		}
		return
	}
	if c.at != nil {
		k = c.at[k]
	}
	c.exec[k] = r.Exec.Seconds()
}

// runTrace replays the setup's trace on the hybrid, THadoop and RHadoop as
// four independent replays fanned out on the process-wide sweep runner's
// worker pool, each on its own pooled replay state over read-only inputs.
// Each replay's sink writes exec seconds straight into its column as jobs
// finish; no replay builds a result slice.
//
// The hybrid replays as two halves. Algorithm 1 routes every job statically
// and, with no load balancer, neither half ever reads the other's state, so
// each half runs alone as hybrid.Replay over only its own jobs: every job in
// it routes back to the same half, and its events keep their shared-clock
// order. Each half's sink maps its local job index back to the trace index
// through order. A hybrid with a balancer would couple the halves and is
// refused.
func runTrace(setup *ReplaySetup) (*traceRun, error) {
	h, jobs := setup.Hybrid, setup.Jobs
	if h.Balance {
		return nil, errors.New("figures: the trace replay routes statically; the hybrid has a load balancer")
	}
	n := len(jobs)
	run := &traceRun{
		jobs:    jobs,
		order:   make([]int, n),
		hybrid:  make([]float64, n),
		thadoop: make([]float64, n),
		rhadoop: make([]float64, n),
	}
	// Scale-up indices fill order from the front; scale-out ones from the
	// back, so reversing the tail restores their trace order.
	u, o := 0, n
	for i := range jobs {
		if h.Sched.Decide(jobs[i]) == core.ScaleUp {
			run.order[u], u = i, u+1
		} else {
			o--
			run.order[o] = i
		}
	}
	slices.Reverse(run.order[u:])
	run.nUp = u
	split := make([]workload.Job, n)
	for k, i := range run.order {
		split[k] = jobs[i]
	}
	run.cols = [4]column{
		{exec: run.rhadoop, replay: "RHadoop"},
		{exec: run.thadoop, replay: "THadoop"},
		{exec: run.hybrid, at: run.order[run.nUp:], replay: "hybrid"},
		{exec: run.hybrid, at: run.order[:run.nUp], replay: "hybrid"},
	}

	// Longest first: on the 6000-job day the baselines take ~30 and ~28 ms
	// and the halves ~20 and ~9 ms, so two workers start both baselines and
	// the halves fill in behind them.
	fair := core.BaselineRun{Policy: mapreduce.Fair}
	replays := [...]func() (uint64, error){
		func() (uint64, error) { return core.ReplayBaseline(setup.RHadoop, jobs, fair, run.cols[0].put) },
		func() (uint64, error) { return core.ReplayBaseline(setup.THadoop, jobs, fair, run.cols[1].put) },
		func() (uint64, error) { return replayHalf(h, split[run.nUp:], &run.cols[2]) },
		func() (uint64, error) { return replayHalf(h, split[:run.nUp], &run.cols[3]) },
	}
	for i, err := range sweep.Map(sweep.Default().Workers(), len(replays), func(i int) error { _, err := replays[i](); return err }) {
		if err == nil {
			err = run.cols[i].err
		}
		if err != nil {
			return nil, err
		}
	}
	return run, nil
}

// replayHalf replays one hybrid half's jobs into c.
func replayHalf(h *core.Hybrid, jobs []workload.Job, c *column) (uint64, error) {
	return h.Replay(jobs, core.FaultRun{}, func(k int, r *core.JobResult) { c.put(k, &r.Result) })
}

// ClassCDF builds the execution-time CDF of one architecture's results for
// one job class.
func (tr *TraceResult) ClassCDF(exec map[string]float64, upClass bool) *stats.CDF {
	// Iterate the trace's job order, not the exec map: CDF.Mean folds samples
	// in insertion order, so a map-ordered fill would leak iteration-order
	// noise into the unrounded mean (quantiles sort and were never affected).
	c := stats.NewCDF(nil)
	for _, j := range tr.Jobs {
		e, ok := exec[j.ID]
		if !ok || tr.UpClass[j.ID] != upClass {
			continue
		}
		c.Add(e)
	}
	return c
}

// Fig10 regenerates Figure 10: the CDFs of execution time of scale-up jobs
// (panel a) and scale-out jobs (panel b) under Hybrid, THadoop and RHadoop.
func Fig10(cal mapreduce.Calibration, cfg workload.Config) (textplot.Figure, error) {
	setup, err := SharedSetup(cal, cfg)
	if err != nil {
		return textplot.Figure{}, err
	}
	run, err := runTrace(setup)
	if err != nil {
		return textplot.Figure{}, err
	}
	archs := [...]struct {
		name string
		exec []float64
	}{
		{"Hybrid", run.hybrid},
		{"THadoop", run.thadoop},
		{"RHadoop", run.rhadoop},
	}
	// cdfs[a] holds architecture a's scale-up and scale-out CDFs. Samples go
	// in trace order within each class, so CDF.Mean folds them in the order
	// ClassCDF does.
	var cdfs [len(archs)][2]*stats.CDF
	samples := make([]float64, len(run.jobs))
	for a, arch := range archs {
		for k, i := range run.order {
			samples[k] = arch.exec[i]
		}
		cdfs[a] = [2]*stats.CDF{stats.NewCDF(samples[:run.nUp]), stats.NewCDF(samples[run.nUp:])}
	}
	panel := func(name string, class int) (textplot.Panel, []string) {
		p := textplot.Panel{Name: name, XLabel: "CDF", YLabel: "execution time (s)"}
		var notes []string
		for a, arch := range archs {
			cdf := cdfs[a][class]
			var xs, ys []float64
			for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0} {
				xs = append(xs, q)
				ys = append(ys, cdf.Quantile(q))
			}
			p.Series = append(p.Series, textplot.Series{Name: arch.name, X: xs, Y: ys, Format: "%.2f"})
			notes = append(notes, fmt.Sprintf("%s %s max = %.2fs", name, arch.name, cdf.Max()))
		}
		return p, notes
	}
	a, notesA := panel("a: scale-up jobs", 0)
	b, notesB := panel("b: scale-out jobs", 1)
	fig := textplot.Figure{
		ID:     "Fig. 10",
		Title:  "Facebook trace experiment: execution-time CDFs per job class",
		Panels: []textplot.Panel{a, b},
		Notes:  append(notesA, notesB...),
	}
	fig.Notes = append(fig.Notes,
		"paper maxima — scale-up jobs: 48.53s (Hybrid), 83.37s (THadoop), 68.17s (RHadoop)",
		"paper maxima — scale-out jobs: 1207s (Hybrid), 3087s (THadoop), 2734s (RHadoop)",
		"scale-out-class divergence from the paper is analyzed in EXPERIMENTS.md")
	return fig, nil
}
