package chaos

import (
	"fmt"
	"hash/fnv"
	"time"

	"hybridmr/internal/core"
	"hybridmr/internal/faults"
	"hybridmr/internal/mapreduce"
	"hybridmr/internal/obs"
	"hybridmr/internal/sweep"
	"hybridmr/internal/workload"
)

// Config parameterizes a chaos campaign.
type Config struct {
	// Seed seeds the whole campaign; round r draws its schedule from
	// Seed mixed with r, so rounds are independent and the campaign is
	// reproducible event-for-event.
	Seed int64
	// Rounds is how many schedules to search; ≤ 0 means 64.
	Rounds int
	// Jobs sizes the workload each round replays; ≤ 0 means 120.
	Jobs int
	// TraceSeed seeds the workload trace (shared by every round); 0
	// means 2009, the FB-2009 default.
	TraceSeed int64
	// Horizon bounds generated fault times; ≤ 0 means one hour (the
	// arrival window of the default workload).
	Horizon time.Duration
	// MaxEvents caps one generated schedule's events; ≤ 0 means 12.
	MaxEvents int
	// Budget is the per-replay watchdog; the zero value applies the
	// default guard (50M events, 30 simulated days) — a chaos campaign
	// never runs unguarded, a hang is exactly what it hunts.
	Budget sweep.Budget
	// Minimize delta-debugs every finding's schedule to a minimal repro.
	Minimize bool
	// MinimizeBudget caps candidate replays per minimization; ≤ 0
	// means 200.
	MinimizeBudget int
	// Workers bounds the round fan-out; ≤ 0 uses the sweep default.
	Workers int
	// Obs streams campaign progress: a counter per outcome class on the
	// registry, one instant per finding on the tracer ("chaos" track,
	// positioned at the finding's round as seconds). Zero observes
	// nothing.
	Obs obs.Set
}

func (cfg *Config) defaults() Config {
	c := *cfg
	if c.Rounds <= 0 {
		c.Rounds = 64
	}
	if c.Jobs <= 0 {
		c.Jobs = 120
	}
	if c.TraceSeed == 0 {
		c.TraceSeed = 2009
	}
	if c.Horizon <= 0 {
		c.Horizon = time.Hour
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 12
	}
	if c.Budget == (sweep.Budget{}) {
		c.Budget = sweep.Budget{MaxEvents: 50_000_000, MaxSimTime: 720 * time.Hour}
	}
	if c.MinimizeBudget <= 0 {
		c.MinimizeBudget = 200
	}
	return c
}

// Replay paths each round drives. The hybrid failure-aware path runs twice
// per round (determinism check); the static hybrid and the FIFO baseline
// once each.
const (
	ReplayHybridFA     = "hybrid-fa"
	ReplayHybridStatic = "hybrid-static"
	ReplayTHadoopFIFO  = "thadoop-fifo"
)

// Finding is one invariant violation a campaign surfaced, with everything
// needed to reproduce it: the replay path, the offending schedule as a
// -faults spec string, and (when minimization ran) the minimal spec.
type Finding struct {
	Round     int    `json:"round"`
	Replay    string `json:"replay"`
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
	Spec      string `json:"spec"`
	Events    int    `json:"events"`
	// MinSpec is the delta-debugged repro; empty when minimization was
	// off or the schedule was already empty.
	MinSpec    string `json:"min_spec,omitempty"`
	MinEvents  int    `json:"min_events,omitempty"`
	MinReplays int    `json:"min_replays,omitempty"`
}

// Report is a campaign's outcome. Marshaling it produces byte-identical
// JSON for identical configurations — no wall time, no map ordering.
type Report struct {
	Seed     int64     `json:"seed"`
	Rounds   int       `json:"rounds"`
	Jobs     int       `json:"jobs"`
	Clean    int       `json:"clean"`
	Rejected int       `json:"rejected"`
	Findings []Finding `json:"findings"`
}

// traceConfig is the FB-2009 default trace squeezed into the campaign's
// horizon — the same workload every replay path and every repro sees.
func traceConfig(jobs int, seed int64, horizon time.Duration) workload.Config {
	cfg := workload.DefaultConfig()
	cfg.Jobs = jobs
	cfg.Seed = seed
	cfg.Duration = horizon
	return cfg
}

// campaign is the immutable per-run context shared by every round: the
// platforms and trace are built once and only read concurrently.
type campaign struct {
	cfg     Config
	hybrid  *core.Hybrid
	thadoop *mapreduce.Platform
	jobs    []workload.Job
	runner  *sweep.Runner
}

// seedGamma spreads round indexes across the seed space (the 64-bit golden
// ratio, the standard splitmix64 increment).
const seedGamma = uint64(0x9E3779B97F4A7C15)

// roundSeed derives round idx's generator seed from the campaign seed.
func roundSeed(seed int64, idx int) int64 {
	return int64(uint64(seed) + uint64(idx)*seedGamma)
}

// Run executes a campaign and returns its report. Rounds fan out over the
// sweep worker pool; every replay runs under sweep.Protect with the
// configured watchdog, so a panicking or hanging point becomes a finding,
// never a crashed campaign. Deterministic: two runs of the same Config
// produce identical reports.
func Run(cfg Config) (*Report, error) {
	c := cfg.defaults()
	cal := mapreduce.DefaultCalibration()
	hybrid, err := core.NewHybrid(cal)
	if err != nil {
		return nil, err
	}
	thadoop, err := mapreduce.NewTHadoop(cal)
	if err != nil {
		return nil, err
	}
	jobs, err := workload.Generate(traceConfig(c.Jobs, c.TraceSeed, c.Horizon))
	if err != nil {
		return nil, err
	}
	camp := &campaign{cfg: c, hybrid: hybrid, thadoop: thadoop, jobs: jobs, runner: sweep.Default()}

	workers := c.Workers
	if workers <= 0 {
		workers = camp.runner.Workers()
	}
	rounds := sweep.Map(workers, c.Rounds, camp.round)

	rep := &Report{Seed: c.Seed, Rounds: c.Rounds, Jobs: c.Jobs}
	for _, r := range rounds {
		rep.Findings = append(rep.Findings, r.findings...)
		rep.Rejected += r.rejected
		if len(r.findings) == 0 && r.rejected == 0 {
			rep.Clean++
		}
	}
	if rep.Findings == nil {
		rep.Findings = []Finding{} // a clean campaign marshals as [], not null
	}
	camp.stream(rep)
	return rep, nil
}

// stream publishes the finished campaign through the observability set, in
// round order (the fan-out already returned rounds input-ordered).
func (camp *campaign) stream(rep *Report) {
	o := camp.cfg.Obs
	if !o.Enabled() {
		return
	}
	o.Metrics.Counter("chaos.rounds").Add(int64(rep.Rounds))
	o.Metrics.Counter("chaos.clean").Add(int64(rep.Clean))
	o.Metrics.Counter("chaos.rejected").Add(int64(rep.Rejected))
	o.Metrics.Counter("chaos.findings").Add(int64(len(rep.Findings)))
	for _, f := range rep.Findings {
		o.Trace.Instant("chaos", f.Replay, f.Invariant,
			time.Duration(f.Round)*time.Second, f.Detail)
	}
}

// roundResult is one round's outcome.
type roundResult struct {
	findings []Finding
	rejected int
}

// round searches one schedule: generate, replay every path, record
// violations, and minimize what it finds.
func (camp *campaign) round(idx int) roundResult {
	gen := NewGenerator(roundSeed(camp.cfg.Seed, idx), camp.cfg.Horizon, camp.cfg.MaxEvents)
	sched := gen.Next()
	var res roundResult
	for _, replay := range []string{ReplayHybridFA, ReplayHybridStatic, ReplayTHadoopFIFO} {
		out := camp.replay(replay, sched)
		switch {
		case out.rejected:
			res.rejected++
			continue
		case out.finding == nil:
			continue
		}
		f := *out.finding
		f.Round = idx
		f.Replay = replay
		f.Spec = sched.Spec()
		f.Events = len(sched.Events)
		if camp.cfg.Minimize && !sched.Empty() {
			min := Minimize(sched, func(cand *faults.Schedule) bool {
				o := camp.replay(replay, cand)
				return o.finding != nil && o.finding.Invariant == f.Invariant
			}, camp.cfg.MinimizeBudget)
			f.MinSpec = min.Schedule.Spec()
			f.MinEvents = len(min.Schedule.Events)
			f.MinReplays = min.Replays
		}
		res.findings = append(res.findings, f)
	}
	return res
}

// replayOutcome is one guarded replay's result.
type replayOutcome struct {
	// finding is non-nil when the replay violated an invariant, panicked
	// or blew the watchdog budget; the campaign fills in round and spec.
	finding *Finding
	// rejected marks a schedule the replay path refused up front (an
	// unsurvivable or incoherent timeline) — a generator miss, not a
	// simulator bug.
	rejected bool
}

// replay runs one path under the watchdog and panic isolation, and reduces
// what happened to an outcome. The hybrid failure-aware path runs twice and
// compares result fingerprints — the replay-determinism invariant.
func (camp *campaign) replay(path string, sched *faults.Schedule) replayOutcome {
	switch path {
	case ReplayHybridFA:
		inv := mapreduce.NewInvariantChecker()
		fp1, err1, cfgErr1 := camp.hybridOnce(sched, true, inv)
		if cfgErr1 != nil {
			return replayOutcome{rejected: true}
		}
		if f := reduce(inv, err1); f != nil {
			return replayOutcome{finding: f}
		}
		inv2 := mapreduce.NewInvariantChecker()
		fp2, err2, cfgErr2 := camp.hybridOnce(sched, true, inv2)
		if cfgErr2 == nil && err2 == nil && inv2.Ok() && fp1 != fp2 {
			return replayOutcome{finding: &Finding{
				Invariant: "determinism",
				Detail:    fmt.Sprintf("hybrid-fa replayed twice: result fingerprints %#x != %#x", fp1, fp2),
			}}
		}
		return replayOutcome{}
	case ReplayHybridStatic:
		inv := mapreduce.NewInvariantChecker()
		_, err, cfgErr := camp.hybridOnce(sched, false, inv)
		if cfgErr != nil {
			return replayOutcome{rejected: true}
		}
		return replayOutcome{finding: reduce(inv, err)}
	default: // ReplayTHadoopFIFO
		inv := mapreduce.NewInvariantChecker()
		var cfgErr error
		err := sweep.Protect(func() {
			_, cfgErr = core.ReplayBaseline(camp.thadoop, camp.jobs, core.BaselineRun{
				Policy: mapreduce.FIFO, Faults: sched.ForBaseline(), Watchdog: camp.cfg.Budget, Invariants: inv,
			}, func(int, *mapreduce.Result) {})
		})
		if cfgErr != nil {
			return replayOutcome{rejected: true}
		}
		return replayOutcome{finding: reduce(inv, err)}
	}
}

// hybridOnce runs the hybrid path once under Protect and fingerprints its
// results. cfgErr reports an up-front schedule rejection; err a panic or
// budget stop.
func (camp *campaign) hybridOnce(sched *faults.Schedule, failureAware bool, inv *mapreduce.InvariantChecker) (fp uint64, err error, cfgErr error) {
	var results []core.JobResult
	err = sweep.Protect(func() {
		results, cfgErr = camp.hybrid.RunFaulted(camp.jobs, core.FaultRun{
			Schedule:        sched,
			FailureAware:    failureAware,
			Blacklist:       failureAware,
			CloneStragglers: failureAware,
			Watchdog:        camp.cfg.Budget,
			Runner:          camp.runner,
			Invariants:      inv,
		})
	})
	if err == nil && cfgErr == nil {
		fp = fingerprint(results)
	}
	return fp, err, cfgErr
}

// fingerprint hashes a result list's replay-visible fields, so two runs of
// the same schedule can be compared without retaining both result sets.
func fingerprint(results []core.JobResult) uint64 {
	h := fnv.New64a()
	for _, r := range results {
		fmt.Fprintf(h, "%s|%d|%d|%d|%d|%v|%v|%d|%t|%t|%d\n",
			r.Job.ID, r.Submit, r.Start, r.End, r.Exec,
			r.Err != nil, r.Target, r.Attempts, r.Diverted, r.Rerouted, r.TaskRetries)
	}
	return h.Sum64()
}

// reduce folds a protected replay's outputs into at most one finding: a
// panic or budget stop first (the replay did not complete; its checker may
// legitimately hold drain violations), then the checker's first violation.
func reduce(inv *mapreduce.InvariantChecker, err error) *Finding {
	if err != nil {
		if pe, ok := err.(*sweep.PointError); ok && pe.Budget != nil {
			return &Finding{Invariant: "budget", Detail: pe.Budget.Error()}
		}
		return &Finding{Invariant: "panic", Detail: err.Error()}
	}
	if inv.Ok() {
		return nil
	}
	v := inv.Violations()[0]
	detail := v.Detail
	if n := len(inv.Violations()) + inv.Dropped(); n > 1 {
		detail = fmt.Sprintf("%s (+%d more)", v.Detail, n-1)
	}
	return &Finding{Invariant: v.Invariant, Detail: detail}
}
