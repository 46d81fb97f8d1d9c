// Package core implements the paper's primary contribution: the hybrid
// scale-up/out Hadoop architecture (§IV). It provides the job scheduler of
// Algorithm 1, which routes each job to the scale-up or scale-out cluster
// based on its shuffle/input ratio and input data size; the cross-point
// measurement procedure other deployments can rerun; the Hybrid cluster
// runner for the trace experiment of §V; and the load-balancing extension
// sketched as future work in §VII.
package core

import (
	"fmt"

	"hybridmr/internal/units"
	"hybridmr/internal/workload"
)

// Target names the cluster half a job is routed to.
type Target int

const (
	// ScaleUp routes the job to the scale-up cluster.
	ScaleUp Target = iota
	// ScaleOut routes the job to the scale-out cluster.
	ScaleOut
)

// String implements fmt.Stringer.
func (t Target) String() string {
	switch t {
	case ScaleUp:
		return "scale-up"
	case ScaleOut:
		return "scale-out"
	default:
		return fmt.Sprintf("Target(%d)", int(t))
	}
}

// CrossPoints holds the input-size thresholds of Algorithm 1, one per
// shuffle/input-ratio band. The paper measures 32 GB for ratios above 1
// (Wordcount's 1.6), 16 GB for ratios in [0.4, 1] (Grep's 0.4), and 10 GB
// for map-intensive jobs below 0.4 (TestDFSIO).
type CrossPoints struct {
	// HighRatio applies when shuffle/input > RatioHigh.
	HighRatio units.Bytes
	// MidRatio applies when RatioLow ≤ shuffle/input ≤ RatioHigh.
	MidRatio units.Bytes
	// LowRatio applies when shuffle/input < RatioLow, and to jobs whose
	// ratio is unknown (§IV: unknown jobs are treated as map-intensive so
	// no large job ever lands on the scale-up machines).
	LowRatio units.Bytes
	// RatioHigh and RatioLow bound the bands; the paper uses 1.0 and 0.4.
	RatioHigh, RatioLow units.Ratio
}

// PaperCrossPoints returns the thresholds measured in the paper (§IV).
func PaperCrossPoints() CrossPoints {
	return CrossPoints{
		HighRatio: 32 * units.GB,
		MidRatio:  16 * units.GB,
		LowRatio:  10 * units.GB,
		RatioHigh: 1.0,
		RatioLow:  0.4,
	}
}

// Validate reports configuration errors.
func (c CrossPoints) Validate() error {
	switch {
	case c.HighRatio <= 0 || c.MidRatio <= 0 || c.LowRatio <= 0:
		return fmt.Errorf("core: non-positive cross point")
	case c.RatioLow < 0 || c.RatioHigh < c.RatioLow:
		return fmt.Errorf("core: ratio bands [%v, %v] invalid", c.RatioLow, c.RatioHigh)
	case c.HighRatio < c.MidRatio || c.MidRatio < c.LowRatio:
		return fmt.Errorf("core: cross points must not decrease with the ratio")
	}
	return nil
}

// Threshold returns the input-size cross point for a job with the given
// shuffle/input ratio; known reports whether the user supplied the ratio.
func (c CrossPoints) Threshold(ratio units.Ratio, known bool) units.Bytes {
	if !known {
		return c.LowRatio
	}
	switch {
	case ratio > c.RatioHigh:
		return c.HighRatio
	case ratio >= c.RatioLow:
		return c.MidRatio
	default:
		return c.LowRatio
	}
}

// Scheduler implements Algorithm 1: select scale-up or scale-out for a
// given job from its shuffle/input ratio and input data size.
type Scheduler struct {
	cross CrossPoints
}

// NewScheduler builds a scheduler around the given cross points.
func NewScheduler(cross CrossPoints) (*Scheduler, error) {
	if err := cross.Validate(); err != nil {
		return nil, err
	}
	return &Scheduler{cross: cross}, nil
}

// MustScheduler is NewScheduler that panics on error.
func MustScheduler(cross CrossPoints) *Scheduler {
	s, err := NewScheduler(cross)
	if err != nil {
		panic(err)
	}
	return s
}

// CrossPoints returns the scheduler's thresholds.
func (s *Scheduler) CrossPoints() CrossPoints { return s.cross }

// Decide returns the cluster for the job — Algorithm 1, line for line:
//
//	if shuffle/input ratio > 1:        scale-up iff input < 32 GB
//	else if 0.4 ≤ shuffle/input ≤ 1:   scale-up iff input < 16 GB
//	else (incl. unknown ratio):        scale-up iff input < 10 GB
func (s *Scheduler) Decide(job workload.Job) Target {
	threshold := s.cross.Threshold(job.App.ShuffleInputRatio, job.RatioKnown)
	if job.SchedulingSize() < threshold {
		return ScaleUp
	}
	return ScaleOut
}
