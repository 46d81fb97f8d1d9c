package core

import (
	"strings"
	"testing"
	"testing/quick"

	"hybridmr/internal/apps"
	"hybridmr/internal/units"
	"hybridmr/internal/workload"
)

func job(app apps.Profile, size units.Bytes, known bool) workload.Job {
	return workload.Job{ID: "t", App: app, Input: size, RatioKnown: known}
}

// Algorithm 1, line for line (§IV).
func TestDecideAlgorithm1(t *testing.T) {
	s := MustScheduler(PaperCrossPoints())
	tests := []struct {
		name string
		job  workload.Job
		want Target
	}{
		// shuffle/input > 1 (wordcount, 1.6): threshold 32 GB.
		{"wc 16GB", job(apps.Wordcount(), 16*units.GB, true), ScaleUp},
		{"wc 31GB", job(apps.Wordcount(), 31*units.GB, true), ScaleUp},
		{"wc 32GB", job(apps.Wordcount(), 32*units.GB, true), ScaleOut},
		{"wc 100GB", job(apps.Wordcount(), 100*units.GB, true), ScaleOut},
		// 0.4 ≤ ratio ≤ 1 (grep 0.4, sort 1.0): threshold 16 GB.
		{"grep 15GB", job(apps.Grep(), 15*units.GB, true), ScaleUp},
		{"grep 16GB", job(apps.Grep(), 16*units.GB, true), ScaleOut},
		{"sort 15GB", job(apps.Sort(), 15*units.GB, true), ScaleUp},
		{"sort 16GB", job(apps.Sort(), 16*units.GB, true), ScaleOut},
		// ratio < 0.4 (dfsio ≈ 0): threshold 10 GB.
		{"dfsio 9GB", job(apps.DFSIOWrite(), 9*units.GB, true), ScaleUp},
		{"dfsio 10GB", job(apps.DFSIOWrite(), 10*units.GB, true), ScaleOut},
		// unknown ratio → treated as map-intensive (§IV), threshold 10 GB.
		{"unknown wc 12GB", job(apps.Wordcount(), 12*units.GB, false), ScaleOut},
		{"unknown wc 9GB", job(apps.Wordcount(), 9*units.GB, false), ScaleUp},
		// tiny jobs always scale-up.
		{"tiny", job(apps.Wordcount(), 10*units.KB, true), ScaleUp},
	}
	for _, tt := range tests {
		if got := s.Decide(tt.job); got != tt.want {
			t.Errorf("%s: Decide = %v, want %v", tt.name, got, tt.want)
		}
	}
}

// Routing uses the nominal (pre-shrink) size when recorded.
func TestDecideUsesNominalSize(t *testing.T) {
	s := MustScheduler(PaperCrossPoints())
	j := job(apps.Wordcount(), 8*units.GB, true) // shrunk size small...
	j.Nominal = 40 * units.GB                    // ...but nominally large
	if got := s.Decide(j); got != ScaleOut {
		t.Errorf("nominal 40GB wordcount routed %v, want scale-out", got)
	}
	j.Nominal = 0
	if got := s.Decide(j); got != ScaleUp {
		t.Errorf("8GB wordcount without nominal routed %v, want scale-up", got)
	}
}

func TestPaperCrossPointsValues(t *testing.T) {
	cp := PaperCrossPoints()
	if cp.HighRatio != 32*units.GB || cp.MidRatio != 16*units.GB || cp.LowRatio != 10*units.GB {
		t.Errorf("cross points %v/%v/%v, want 32/16/10 GB", cp.HighRatio, cp.MidRatio, cp.LowRatio)
	}
	if cp.RatioHigh != 1.0 || cp.RatioLow != 0.4 {
		t.Errorf("ratio bands %v/%v, want 1.0/0.4", cp.RatioHigh, cp.RatioLow)
	}
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCrossPointsValidate(t *testing.T) {
	mut := func(f func(*CrossPoints)) CrossPoints {
		c := PaperCrossPoints()
		f(&c)
		return c
	}
	bad := []struct {
		name string
		cp   CrossPoints
	}{
		{"zero high", mut(func(c *CrossPoints) { c.HighRatio = 0 })},
		{"zero low", mut(func(c *CrossPoints) { c.LowRatio = 0 })},
		{"inverted bands", mut(func(c *CrossPoints) { c.RatioHigh = 0.2 })},
		{"negative low band", mut(func(c *CrossPoints) { c.RatioLow = -1 })},
		{"decreasing", mut(func(c *CrossPoints) { c.MidRatio = 40 * units.GB })},
	}
	for _, tt := range bad {
		if err := tt.cp.Validate(); err == nil {
			t.Errorf("%s: Validate succeeded", tt.name)
		}
		if _, err := NewScheduler(tt.cp); err == nil {
			t.Errorf("%s: NewScheduler succeeded", tt.name)
		}
	}
}

func TestMustSchedulerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustScheduler on bad cross points did not panic")
		}
	}()
	MustScheduler(CrossPoints{})
}

func TestTargetString(t *testing.T) {
	if ScaleUp.String() != "scale-up" || ScaleOut.String() != "scale-out" {
		t.Error("target strings")
	}
	if !strings.HasPrefix(Target(7).String(), "Target(") {
		t.Error("unknown target string")
	}
}

// Property: the decision is total and deterministic, and monotone in size —
// if a job goes scale-out, any bigger job with the same profile also does.
func TestDecideMonotoneProperty(t *testing.T) {
	s := MustScheduler(PaperCrossPoints())
	profiles := []apps.Profile{apps.Wordcount(), apps.Grep(), apps.Sort(), apps.DFSIOWrite()}
	f := func(sizeRaw uint64, extraRaw uint32, profIdx uint8, known bool) bool {
		prof := profiles[int(profIdx)%len(profiles)]
		size := units.Bytes(sizeRaw%uint64(2*units.TB)) + 1
		bigger := size + units.Bytes(extraRaw)
		a := s.Decide(job(prof, size, known))
		b := s.Decide(job(prof, size, known))
		if a != b {
			return false // non-deterministic
		}
		if a == ScaleOut && s.Decide(job(prof, bigger, known)) != ScaleOut {
			return false // non-monotone
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestThresholdBands(t *testing.T) {
	cp := PaperCrossPoints()
	tests := []struct {
		ratio units.Ratio
		known bool
		want  units.Bytes
	}{
		{1.6, true, 32 * units.GB},
		{1.01, true, 32 * units.GB},
		{1.0, true, 16 * units.GB},
		{0.4, true, 16 * units.GB},
		{0.39, true, 10 * units.GB},
		{0, true, 10 * units.GB},
		{1.6, false, 10 * units.GB}, // unknown overrides the ratio
	}
	for _, tt := range tests {
		if got := cp.Threshold(tt.ratio, tt.known); got != tt.want {
			t.Errorf("Threshold(%v, %v) = %v, want %v", tt.ratio, tt.known, got, tt.want)
		}
	}
}
