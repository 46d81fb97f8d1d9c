// Package workload synthesizes and serializes FB-2009-like workload traces.
// The paper drives its §V experiment with the Facebook synthesized trace
// FB-2009 (more than 6000 jobs); its published input-size CDF (Fig. 3) has
// 40 % of jobs below 1 MB, 49 % between 1 MB and 30 GB, and 11 % above
// 30 GB, with sizes spanning KB to TB. This package reproduces that mixture
// with log-uniform bands, Poisson arrivals over a trace day, an application
// mix over the paper's profiles, and the 5× shrink factor the authors apply
// to fit their 24-machine testbed.
package workload

import (
	"fmt"
	"time"

	"hybridmr/internal/apps"
	"hybridmr/internal/stats"
	"hybridmr/internal/units"
)

// Band mirrors stats.Band at the byte level, with an optional map-task
// range for the many-small-files effect: jobs in the band run between
// TasksLo and TasksHi map tasks (log-uniform) when that exceeds the
// block-derived count. Zero means one map per 128 MB block.
type Band struct {
	Fraction         float64
	Lo, Hi           units.Bytes
	TasksLo, TasksHi int
}

// Config parameterizes the generator.
type Config struct {
	// Jobs is the number of jobs to synthesize (the trace has >6000).
	Jobs int
	// Seed makes the trace reproducible.
	Seed int64
	// Duration is the arrival window; jobs arrive Poisson over it.
	// FB-2009 spans a day.
	Duration time.Duration
	// Bands is the input-size mixture; defaults to Fig. 3's three bands.
	Bands []Band
	// Shrink divides every sampled size, as §V shrinks input/shuffle/
	// output by 5 "to avoid disk insufficiency". 0 or 1 means no shrink.
	Shrink float64
	// AppMix weights the application profiles jobs draw from; defaults
	// to a mix of the paper's applications.
	AppMix []AppWeight
	// UnknownRatioFraction is the fraction of jobs whose shuffle/input
	// ratio the submitting user does not supply (§IV's fallback path).
	UnknownRatioFraction float64
	// BurstFraction is the probability that a job arrives in the same
	// burst as its predecessor (within BurstGap) instead of after an
	// exponential gap. Production MapReduce arrivals are strongly bursty
	// (Chen et al. [10]); the non-burst gaps are stretched so the
	// overall rate still matches Jobs/Duration.
	BurstFraction float64
	// BurstGap is the spacing of jobs inside a burst.
	BurstGap time.Duration
}

// AppWeight weights one application in the mix.
type AppWeight struct {
	App    apps.Profile
	Weight float64
}

// DefaultConfig returns the FB-2009-like defaults used by the §V
// reproduction.
func DefaultConfig() Config {
	return Config{
		Jobs:     6000,
		Seed:     2009,
		Duration: 24 * time.Hour,
		// Fig. 3's anchor points: 40 % below 1 MB, 49 % between 1 MB
		// and 30 GB, 11 % above 30 GB. The tail band is split so its
		// mass decays towards 1 TB (the CDF is nearly flat past a few
		// hundred GB), keeping the day's total data volume at the tens
		// of terabytes a 600-machine production cluster ingested
		// rather than the petabyte a uniform-log tail would imply.
		// Band task ranges (TasksLo/TasksHi) can model inputs made of
		// many small files (one map per file); the defaults leave them
		// off so map counts follow the 128 MB block rule, as in the
		// paper's own BigDataBench-generated inputs.
		Bands: []Band{
			{Fraction: 0.40, Lo: 1 * units.KB, Hi: 1 * units.MB},
			{Fraction: 0.49, Lo: 1 * units.MB, Hi: 30 * units.GB},
			{Fraction: 0.08, Lo: 30 * units.GB, Hi: 100 * units.GB},
			{Fraction: 0.025, Lo: 100 * units.GB, Hi: 300 * units.GB},
			{Fraction: 0.005, Lo: 300 * units.GB, Hi: 1 * units.TB},
		},
		Shrink: 5,
		AppMix: []AppWeight{
			{App: apps.Wordcount(), Weight: 0.30},
			{App: apps.Grep(), Weight: 0.30},
			{App: apps.Sort(), Weight: 0.15},
			{App: apps.DFSIOWrite(), Weight: 0.15},
			{App: apps.DFSIORead(), Weight: 0.10},
		},
		UnknownRatioFraction: 0.05,
		BurstFraction:        0.85,
		BurstGap:             200 * time.Millisecond,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Jobs <= 0:
		return fmt.Errorf("workload: %d jobs", c.Jobs)
	case c.Duration <= 0:
		return fmt.Errorf("workload: non-positive duration")
	case len(c.Bands) == 0:
		return fmt.Errorf("workload: no size bands")
	case len(c.AppMix) == 0:
		return fmt.Errorf("workload: empty application mix")
	case c.Shrink < 0:
		return fmt.Errorf("workload: negative shrink")
	case c.UnknownRatioFraction < 0 || c.UnknownRatioFraction > 1:
		return fmt.Errorf("workload: unknown-ratio fraction %v", c.UnknownRatioFraction)
	case c.BurstFraction < 0 || c.BurstFraction >= 1:
		return fmt.Errorf("workload: burst fraction %v outside [0,1)", c.BurstFraction)
	case c.BurstFraction > 0 && c.BurstGap <= 0:
		return fmt.Errorf("workload: bursts need a positive gap")
	}
	for i, b := range c.Bands {
		if b.Fraction < 0 || b.Lo <= 0 || b.Hi < b.Lo {
			return fmt.Errorf("workload: band %d invalid", i)
		}
		if b.TasksLo < 0 || b.TasksHi < b.TasksLo {
			return fmt.Errorf("workload: band %d task range invalid", i)
		}
	}
	for i, w := range c.AppMix {
		if w.Weight < 0 {
			return fmt.Errorf("workload: app weight %d negative", i)
		}
		if err := w.App.Validate(); err != nil {
			return fmt.Errorf("workload: app %d: %v", i, err)
		}
	}
	return nil
}

// Generate synthesizes the trace. Jobs come back sorted by arrival time
// with IDs job00000, job00001, ... in arrival order.
func Generate(cfg Config) ([]Job, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed)

	bands := make([]stats.Band, len(cfg.Bands))
	for i, b := range cfg.Bands {
		bands[i] = stats.Band{Weight: b.Fraction, Lo: float64(b.Lo), Hi: float64(b.Hi)}
	}
	sizes, err := stats.NewPiecewiseLogSampler(bands)
	if err != nil {
		return nil, err
	}

	var totalW float64
	for _, w := range cfg.AppMix {
		totalW += w.Weight
	}
	if totalW == 0 {
		return nil, fmt.Errorf("workload: all app weights zero")
	}
	pickApp := func() apps.Profile {
		u := rng.Float64() * totalW
		var acc float64
		for _, w := range cfg.AppMix {
			acc += w.Weight
			if u <= acc {
				return w.App
			}
		}
		return cfg.AppMix[len(cfg.AppMix)-1].App
	}

	shrink := cfg.Shrink
	if shrink == 0 {
		shrink = 1
	}
	meanGap := cfg.Duration.Seconds() / float64(cfg.Jobs)

	jobs := make([]Job, 0, cfg.Jobs)
	var at float64
	for i := 0; i < cfg.Jobs; i++ {
		if i > 0 && rng.Float64() < cfg.BurstFraction {
			at += cfg.BurstGap.Seconds()
		} else {
			// Stretch the inter-burst gaps so the overall arrival
			// rate still averages Jobs/Duration.
			at += rng.Exp(meanGap / (1 - cfg.BurstFraction))
		}
		sample, band := sizes.SampleWithBand(rng)
		nominal := units.Bytes(sample)
		size := nominal.Scale(1 / shrink)
		if size < 1*units.KB {
			size = 1 * units.KB
		}
		tasks := 0
		if b := cfg.Bands[band]; b.TasksHi > 0 {
			tasks = int(rng.LogUniform(float64(b.TasksLo), float64(b.TasksHi)) + 0.5)
		}
		jobs = append(jobs, Job{
			ID:         fmt.Sprintf("job%05d", i),
			App:        pickApp(),
			Input:      size,
			Nominal:    nominal,
			Submit:     time.Duration(at * float64(time.Second)),
			RatioKnown: rng.Float64() >= cfg.UnknownRatioFraction,
			MapTasks:   tasks,
		})
	}
	return jobs, nil
}

// InputCDF returns the empirical CDF of the jobs' input sizes in bytes —
// the data behind Fig. 3.
func InputCDF(jobs []Job) *stats.CDF {
	c := stats.NewCDF(nil)
	for _, j := range jobs {
		c.Add(float64(j.Input))
	}
	return c
}
