package mapreduce

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"hybridmr/internal/apps"
	"hybridmr/internal/cluster"
	"hybridmr/internal/storage/hdfs"
	"hybridmr/internal/storage/ofs"
	"hybridmr/internal/units"
)

// tuneParams is the search space of the offline calibration tuner.
type tuneParams struct {
	taskStartup   float64 // seconds
	reduceStartup float64
	jobSetup      float64
	ofsReadLat    float64
	ofsWriteLat   float64
	wcRate        float64 // MB/s
	grepRate      float64
	dfsioRate     float64
	cpuFactor     float64
	shuffleWDuty  float64
}

func (tp tuneParams) calibration() Calibration {
	cal := DefaultCalibration()
	cal.TaskStartup = time.Duration(tp.taskStartup * float64(time.Second))
	cal.ReduceStartup = time.Duration(tp.reduceStartup * float64(time.Second))
	cal.JobSetup = time.Duration(tp.jobSetup * float64(time.Second))
	cal.ShuffleWriteDuty = tp.shuffleWDuty
	return cal
}

func (tp tuneParams) platforms(t testing.TB) (upOFS, upHDFS, outOFS, outHDFS *Platform) {
	cal := tp.calibration()
	ofsCfg := ofs.DefaultConfig()
	ofsCfg.RequestLatency = time.Duration(tp.ofsReadLat * float64(time.Second))
	ofsCfg.WriteLatency = time.Duration(tp.ofsWriteLat * float64(time.Second))
	ofsFS, err := ofs.New(ofsCfg)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, spec cluster.Spec, useOFS bool) *Platform {
		spec.Machine.CPUFactor = 1.0
		if spec.Machine.Name == "scale-up" {
			spec.Machine.CPUFactor = tp.cpuFactor
		}
		if useOFS {
			p, err := NewPlatform(name, spec, ofsFS, cal)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		m := spec.Machine
		cfg := hdfs.DefaultConfig(spec.Machines, m.DiskCapacity, m.DiskBW)
		cfg.PageCachePerNode = pageCacheBudget(m, spec)
		fs, err := hdfs.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPlatform(name, spec, fs, cal)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return mk("up-OFS", cluster.ScaleUp2(), true),
		mk("up-HDFS", cluster.ScaleUp2(), false),
		mk("out-OFS", cluster.ScaleOut12(), true),
		mk("out-HDFS", cluster.ScaleOut12(), false)
}

func (tp tuneParams) profile(name string) apps.Profile {
	switch name {
	case "wordcount":
		p := apps.Wordcount()
		p.MapRate = units.MBps(tp.wcRate)
		return p
	case "grep":
		p := apps.Grep()
		p.MapRate = units.MBps(tp.grepRate)
		return p
	case "dfsio-write":
		p := apps.DFSIOWrite()
		p.MapRate = units.MBps(tp.dfsioRate)
		return p
	}
	panic(name)
}

// crossoverGB finds the input size where out-OFS becomes faster than
// up-OFS for good: the geometric midpoint between the last size where
// scale-up wins and the first size after which scale-out wins at every
// larger probe. Returns -1 when there is no crossover in (lo, hi).
func crossoverGB(up, out *Platform, prof apps.Profile, lo, hi float64) float64 {
	const steps = 60
	wins := make([]bool, 0, steps) // true = scale-out faster
	sizes := make([]float64, 0, steps)
	for i := 0; i < steps; i++ {
		gb := lo * math.Pow(hi/lo, float64(i)/float64(steps-1))
		job := Job{ID: "x", App: prof, Input: units.GiB(gb)}
		u := up.RunIsolated(job)
		o := out.RunIsolated(job)
		if u.Err != nil || o.Err != nil {
			continue
		}
		sizes = append(sizes, gb)
		wins = append(wins, o.Exec < u.Exec)
	}
	// Find the last index where scale-up wins such that scale-out wins
	// everywhere after.
	last := -1
	for i := range wins {
		if !wins[i] {
			last = i
		}
	}
	if last == -1 {
		return lo // scale-out always wins
	}
	if last == len(wins)-1 {
		return -1 // scale-up still winning at hi
	}
	return math.Sqrt(sizes[last] * sizes[last+1])
}

func (tp tuneParams) score(t testing.TB) (float64, string) {
	upOFS, upHDFS, outOFS, outHDFS := tp.platforms(t)
	wc := tp.profile("wordcount")
	gr := tp.profile("grep")
	df := tp.profile("dfsio-write")

	penalty := 0.0
	var notes string

	crossTarget := func(name string, got, want float64) {
		if got < 0 {
			penalty += 100
			notes += fmt.Sprintf("%s: no crossover; ", name)
			return
		}
		rel := math.Abs(math.Log(got / want))
		penalty += 12 * rel * rel
		notes += fmt.Sprintf("%s=%.1fGB; ", name, got)
	}
	crossTarget("wc", crossoverGB(upOFS, outOFS, wc, 2, 120), 32)
	crossTarget("grep", crossoverGB(upOFS, outOFS, gr, 1, 80), 16)
	crossTarget("dfsio", crossoverGB(upOFS, outOFS, df, 1, 60), 10)
	crossTarget("dfsio", crossoverGB(upOFS, outOFS, df, 1, 60), 10) // double weight

	exec := func(p *Platform, prof apps.Profile, gb float64) float64 {
		r := p.RunIsolated(Job{ID: "x", App: prof, Input: units.GiB(gb)})
		if r.Err != nil {
			return -1
		}
		return r.Exec.Seconds()
	}
	orderPenalty := func(label string, vals ...float64) {
		for i := 1; i < len(vals); i++ {
			if vals[i-1] < 0 || vals[i] < 0 {
				penalty += 50
				continue
			}
			if vals[i-1] > vals[i] {
				rel := vals[i-1]/vals[i] - 1
				penalty += 5 * (rel + 0.05)
				notes += fmt.Sprintf("ord[%s#%d]; ", label, i)
			}
		}
	}
	// Small-job ordering (§III-B): up-HDFS < up-OFS < out-HDFS < out-OFS.
	for _, gb := range []float64{1, 4} {
		for _, prof := range []apps.Profile{wc, gr} {
			orderPenalty(fmt.Sprintf("small-%s-%v", prof.Name, gb),
				exec(upHDFS, prof, gb), exec(upOFS, prof, gb),
				exec(outHDFS, prof, gb), exec(outOFS, prof, gb))
		}
	}
	// Large-job ordering: out-OFS < out-HDFS < up-OFS (< up-HDFS, capacity
	// permitting).
	for _, gb := range []float64{128, 256} {
		for _, prof := range []apps.Profile{wc, gr} {
			orderPenalty(fmt.Sprintf("large-%s-%v", prof.Name, gb),
				exec(outOFS, prof, gb), exec(outHDFS, prof, gb), exec(upOFS, prof, gb))
		}
	}
	// Cross points must be ordered by shuffle/input ratio: wc > grep ≥ dfsio.
	wcX := crossoverGB(upOFS, outOFS, wc, 2, 120)
	grX := crossoverGB(upOFS, outOFS, gr, 1, 80)
	dfX := crossoverGB(upOFS, outOFS, df, 1, 60)
	if wcX > 0 && grX > 0 && wcX <= grX {
		penalty += 10
		notes += "wc<=grep cross; "
	}
	if grX > 0 && dfX > 0 && grX < dfX {
		penalty += 10 * (dfX/grX - 1)
		notes += "grep<dfsio cross; "
	}
	// DFSIO large ordering (§III-C): out-OFS < up-OFS < out-HDFS.
	for _, gb := range []float64{100, 300, 1000} {
		orderPenalty(fmt.Sprintf("dfsio-large-%v", gb),
			exec(outOFS, df, gb), exec(upOFS, df, gb), exec(outHDFS, df, gb))
	}
	// DFSIO small: scale-up best at 1–5 GB.
	for _, gb := range []float64{1, 3, 5} {
		orderPenalty(fmt.Sprintf("dfsio-small-%v", gb), exec(upOFS, df, gb), exec(outOFS, df, gb))
	}
	// Small-job HDFS advantage (§III-B): out-HDFS ≈20 % better than
	// out-OFS, up-HDFS ≈10 % better than up-OFS (soft targets).
	gapTarget := func(label string, slow, fast, want float64) {
		if slow < 0 || fast < 0 {
			penalty += 50
			return
		}
		gap := (slow - fast) / fast
		d := gap - want
		penalty += 3 * d * d
		notes += fmt.Sprintf("%s=%.2f; ", label, gap)
	}
	gapTarget("outGap", exec(outOFS, wc, 1), exec(outHDFS, wc, 1), 0.20)
	gapTarget("upGap", exec(upOFS, wc, 1), exec(upHDFS, wc, 1), 0.10)
	// Wordcount at 448 GB: the RAM-disk overflow makes up-OFS ≈1.4×
	// slower than out-OFS (Fig. 5a's right edge).
	gapTarget("wc448", exec(upOFS, wc, 448), exec(outOFS, wc, 448), 0.40)
	return penalty, notes
}

// TestEvalCandidate scores one hand-rounded candidate, skipped unless
// HYBRIDMR_EVAL=1.
func TestEvalCandidate(t *testing.T) {
	if os.Getenv("HYBRIDMR_EVAL") == "" {
		t.Skip("set HYBRIDMR_EVAL=1 to evaluate the candidate")
	}
	tp := tuneParams{
		taskStartup:   0.67,
		reduceStartup: 3.66,
		jobSetup:      3.87,
		ofsReadLat:    2.17,
		ofsWriteLat:   1.30,
		wcRate:        11.6,
		grepRate:      22.2,
		dfsioRate:     377,
		cpuFactor:     1.42,
		shuffleWDuty:  0.05,
	}
	s, n := tp.score(t)
	t.Logf("candidate score %.3f: %s", s, n)
}

// TestTuneCalibration is an offline random-search tuner, skipped unless
// HYBRIDMR_TUNE=1. It prints the best parameter set found.
func TestTuneCalibration(t *testing.T) {
	if os.Getenv("HYBRIDMR_TUNE") == "" {
		t.Skip("set HYBRIDMR_TUNE=1 to run the calibration tuner")
	}
	rng := rand.New(rand.NewSource(1))
	base := tuneParams{
		taskStartup:   2.5,
		reduceStartup: 2.5,
		jobSetup:      4,
		ofsReadLat:    1.0,
		ofsWriteLat:   0.4,
		wcRate:        10,
		grepRate:      25,
		dfsioRate:     150,
		cpuFactor:     1.5,
		shuffleWDuty:  0.25,
	}
	best := base
	bestScore, bestNotes := base.score(t)
	sample := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
	const iters = 60000
	for i := 0; i < iters; i++ {
		tp := tuneParams{
			taskStartup:   sample(1.0, 4.0),
			reduceStartup: sample(1.0, 4.0),
			jobSetup:      sample(2.0, 6.0),
			ofsReadLat:    sample(0.3, 2.0),
			ofsWriteLat:   sample(0.1, 1.2),
			wcRate:        sample(6, 16),
			grepRate:      sample(15, 45),
			dfsioRate:     sample(80, 400),
			cpuFactor:     sample(1.2, 2.0),
			shuffleWDuty:  sample(0.1, 0.5),
		}
		s, n := tp.score(t)
		if s < bestScore {
			bestScore, best, bestNotes = s, tp, n
		}
	}
	// Local refinement around the incumbent.
	perturb := func(v, frac float64) float64 { return v * (1 + (rng.Float64()*2-1)*frac) }
	for i := 0; i < 40000; i++ {
		frac := 0.15
		if i > 20000 {
			frac = 0.05
		}
		tp := best
		tp.taskStartup = perturb(tp.taskStartup, frac)
		tp.reduceStartup = perturb(tp.reduceStartup, frac)
		tp.jobSetup = perturb(tp.jobSetup, frac)
		tp.ofsReadLat = perturb(tp.ofsReadLat, frac)
		tp.ofsWriteLat = perturb(tp.ofsWriteLat, frac)
		tp.wcRate = perturb(tp.wcRate, frac)
		tp.grepRate = perturb(tp.grepRate, frac)
		tp.dfsioRate = perturb(tp.dfsioRate, frac)
		tp.cpuFactor = perturb(tp.cpuFactor, frac)
		tp.shuffleWDuty = perturb(tp.shuffleWDuty, frac)
		s, n := tp.score(t)
		if s < bestScore {
			bestScore, best, bestNotes = s, tp, n
		}
	}
	t.Logf("best score %.3f: %+v", bestScore, best)
	t.Logf("notes: %s", bestNotes)
}
