package core

import (
	"fmt"

	"hybridmr/internal/mapreduce"
	"hybridmr/internal/units"
	"hybridmr/internal/workload"
)

// Explain reports how Algorithm 1 reached a routing decision; hybridsim
// prints it, and it documents the scheduler's behaviour in one struct.
type Explain struct {
	Job       string
	Ratio     units.Ratio
	Known     bool
	Size      units.Bytes
	Threshold units.Bytes
	Target    Target
}

// String renders the explanation on one line.
func (e Explain) String() string {
	ratio := fmt.Sprintf("%.2f", float64(e.Ratio))
	if !e.Known {
		ratio = "unknown (treated as map-intensive)"
	}
	return fmt.Sprintf("%s: shuffle/input %s, size %v vs threshold %v -> %v",
		e.Job, ratio, e.Size, e.Threshold, e.Target)
}

// ExplainDecision returns the full reasoning behind Decide for one job.
func (s *Scheduler) ExplainDecision(job workload.Job) Explain {
	threshold := s.cross.Threshold(job.App.ShuffleInputRatio, job.RatioKnown)
	return Explain{
		Job:       job.ID,
		Ratio:     job.App.ShuffleInputRatio,
		Known:     job.RatioKnown,
		Size:      job.SchedulingSize(),
		Threshold: threshold,
		Target:    s.Decide(job),
	}
}

// SensitivityPoint is one probe of a threshold-sensitivity sweep.
type SensitivityPoint struct {
	// Scale multiplies every Algorithm 1 threshold.
	Scale float64
	// MeanExec is the workload's mean execution time in seconds under
	// the scaled thresholds.
	MeanExec float64
	// UpFraction is the fraction of jobs routed to the scale-up cluster.
	UpFraction float64
}

// ThresholdSensitivity reruns the trace experiment with Algorithm 1's
// thresholds scaled by each factor and reports the workload mean execution
// time — the check that the measured cross points sit near the optimum of
// the hybrid's routing knob. Scale 0.25 sends most work to the scale-out
// half (starving the fast scale-up cluster); large scales push multi-GB
// jobs onto 2 machines.
func ThresholdSensitivity(cal mapreduce.Calibration, jobs []workload.Job, scales []float64) ([]SensitivityPoint, error) {
	if len(scales) == 0 {
		return nil, fmt.Errorf("core: no scales to probe")
	}
	base := PaperCrossPoints()
	out := make([]SensitivityPoint, 0, len(scales))
	// exec[i] is jobs[i]'s execution seconds under the current scale; the
	// mean folds it in workload order.
	exec := make([]float64, len(jobs))
	for _, scale := range scales {
		if scale <= 0 {
			return nil, fmt.Errorf("core: non-positive scale %v", scale)
		}
		cp := base
		cp.HighRatio = base.HighRatio.Scale(scale)
		cp.MidRatio = base.MidRatio.Scale(scale)
		cp.LowRatio = base.LowRatio.Scale(scale)
		sched, err := NewScheduler(cp)
		if err != nil {
			return nil, err
		}
		hybrid, err := NewHybrid(cal)
		if err != nil {
			return nil, err
		}
		hybrid.Sched = sched
		nUp := 0
		for _, j := range jobs {
			if sched.Decide(j) == ScaleUp {
				nUp++
			}
		}

		var failed error
		_, err = hybrid.Replay(jobs, FaultRun{}, func(i int, r *JobResult) {
			if r.Err != nil && failed == nil {
				failed = fmt.Errorf("core: sensitivity scale %v: job %s: %w", scale, r.Job.ID, r.Err)
			}
			exec[i] = r.Exec.Seconds()
		})
		if err == nil {
			err = failed
		}
		if err != nil {
			return nil, err
		}
		var sum float64
		for _, e := range exec {
			sum += e
		}
		out = append(out, SensitivityPoint{
			Scale:      scale,
			MeanExec:   sum / float64(len(jobs)),
			UpFraction: float64(nUp) / float64(len(jobs)),
		})
	}
	return out, nil
}
