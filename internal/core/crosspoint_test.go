package core

import (
	"testing"

	"hybridmr/internal/apps"
	"hybridmr/internal/mapreduce"
	"hybridmr/internal/units"
)

func upOutPlatforms(t testing.TB) (up, out *mapreduce.Platform) {
	t.Helper()
	cal := mapreduce.DefaultCalibration()
	up, err := mapreduce.NewArch(mapreduce.UpOFS, cal)
	if err != nil {
		t.Fatal(err)
	}
	out, err = mapreduce.NewArch(mapreduce.OutOFS, cal)
	if err != nil {
		t.Fatal(err)
	}
	return up, out
}

func TestSweepCrossPointShape(t *testing.T) {
	up, out := upOutPlatforms(t)
	pts := SweepCrossPoint(up, out, apps.Wordcount(), units.GB, 100*units.GB, 30)
	if len(pts) != 30 {
		t.Fatalf("%d points", len(pts))
	}
	// Sizes increase; the ratio falls from above 1 to below 1 across the
	// sweep (Fig. 7's shape).
	for i := 1; i < len(pts); i++ {
		if pts[i].Input <= pts[i-1].Input {
			t.Fatal("sweep sizes not increasing")
		}
	}
	if pts[0].Ratio <= 1 {
		t.Errorf("smallest probe ratio %.3f, want > 1 (scale-up wins small jobs)", pts[0].Ratio)
	}
	if last := pts[len(pts)-1].Ratio; last >= 1 {
		t.Errorf("largest probe ratio %.3f, want < 1 (scale-out wins large jobs)", last)
	}
}

func TestSweepSkipsRejectedSizes(t *testing.T) {
	cal := mapreduce.DefaultCalibration()
	upHDFS, err := mapreduce.NewArch(mapreduce.UpHDFS, cal)
	if err != nil {
		t.Fatal(err)
	}
	_, out := upOutPlatforms(t)
	// up-HDFS rejects sizes above ≈80 GB; those probes are skipped.
	pts := SweepCrossPoint(upHDFS, out, apps.Grep(), units.GB, 400*units.GB, 40)
	if len(pts) == 0 || len(pts) >= 40 {
		t.Errorf("%d points, want some skipped for capacity", len(pts))
	}
	for _, p := range pts {
		if p.Input > 85*units.GB {
			t.Errorf("size %v should have been rejected by up-HDFS", p.Input)
		}
	}
}

func TestSweepPanicsOnBadSteps(t *testing.T) {
	up, out := upOutPlatforms(t)
	defer func() {
		if recover() == nil {
			t.Fatal("steps=1 did not panic")
		}
	}()
	SweepCrossPoint(up, out, apps.Grep(), units.GB, 2*units.GB, 1)
}

func TestFindCrossPoint(t *testing.T) {
	up, out := upOutPlatforms(t)
	got, ok := FindCrossPoint(up, out, apps.Wordcount(), 2*units.GB, 120*units.GB, 96)
	if !ok {
		t.Fatal("no wordcount cross point")
	}
	if got < 19*units.GB || got > 45*units.GB {
		t.Errorf("wordcount cross point %v, want ≈32GB", got)
	}
	// A range where one side always wins yields no cross point.
	if _, ok := FindCrossPoint(up, out, apps.Wordcount(), units.MB, 10*units.MB, 10); ok {
		t.Error("found a cross point in an all-scale-up range")
	}
}

// MeasureCrossPoints reruns the paper's methodology end to end and produces
// a valid, Algorithm-1-compatible table near the paper's 32/16/10 GB.
func TestMeasureCrossPoints(t *testing.T) {
	up, out := upOutPlatforms(t)
	cp, err := MeasureCrossPoints(up, out)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
	check := func(name string, got units.Bytes, want float64) {
		g := got.GiBf()
		if g < want*0.6 || g > want*1.4 {
			t.Errorf("%s cross point %.1fGB, want %.0fGB ±40%%", name, g, want)
		}
	}
	check("high-ratio", cp.HighRatio, 32)
	check("mid-ratio", cp.MidRatio, 16)
	check("low-ratio", cp.LowRatio, 10)
	// The measured table drives a scheduler directly.
	if _, err := NewScheduler(cp); err != nil {
		t.Fatal(err)
	}
}

// grayPair returns up-OFS and out-OFS both seen through a nic/rack gray
// throttle, as `crosspoint -degrade` measures them.
func grayPair(t *testing.T, nic, rack float64) (up, out *mapreduce.Platform) {
	t.Helper()
	up, out = upOutPlatforms(t)
	up, err := up.View(0, 0, nic, rack)
	if err != nil {
		t.Fatal(err)
	}
	if out, err = out.View(0, 0, nic, rack); err != nil {
		t.Fatal(err)
	}
	return up, out
}

// Algorithm 1's thresholds measured on gray-throttled platforms, byte for
// byte: at nic÷2 and bisection÷4 the 39 GB high-ratio crossover collapses to
// 4.4 GB, and each axis alone shifts the table its own way.
func TestMeasureCrossPointsGray(t *testing.T) {
	for _, tc := range []struct {
		nic, rack      float64
		high, mid, low units.Bytes
	}{
		{2, 4, 4698299604, 4698299604, 4648264618},
		{2, 1, 32443291250, 14214164458, 4648264618},
		{1, 4, 32443291250, 14254197270, 14254197270},
	} {
		up, out := grayPair(t, tc.nic, tc.rack)
		cp, err := MeasureCrossPoints(up, out)
		if err != nil {
			t.Fatal(err)
		}
		if cp.HighRatio != tc.high || cp.MidRatio != tc.mid || cp.LowRatio != tc.low {
			t.Errorf("nic÷%g rack÷%g: cross points %d/%d/%d, want %d/%d/%d", tc.nic, tc.rack,
				int64(cp.HighRatio), int64(cp.MidRatio), int64(cp.LowRatio), int64(tc.high), int64(tc.mid), int64(tc.low))
		}
	}
}
