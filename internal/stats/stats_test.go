package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2, 4})
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %v, want 0", got)
	}
	if got := c.At(2); got != 0.5 {
		t.Errorf("At(2) = %v, want 0.5", got)
	}
	if got := c.At(4); got != 1 {
		t.Errorf("At(4) = %v, want 1", got)
	}
	if got := c.At(2.5); got != 0.5 {
		t.Errorf("At(2.5) = %v, want 0.5", got)
	}
	if got := c.Min(); got != 1 {
		t.Errorf("Min = %v, want 1", got)
	}
	if got := c.Max(); got != 4 {
		t.Errorf("Max = %v, want 4", got)
	}
	if got := c.Mean(); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
}

func TestCDFAddInvalidatesCache(t *testing.T) {
	c := NewCDF([]float64{1, 2})
	_ = c.At(1.5) // force sort
	c.Add(0)
	if got := c.At(0.5); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("At(0.5) after Add = %v, want 1/3", got)
	}
	if got := c.Min(); got != 0 {
		t.Errorf("Min after Add = %v, want 0", got)
	}
}

func TestQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 10},
		{0.1, 10},
		{0.5, 50},
		{0.9, 90},
		{1, 100},
		{0.95, 100},
	}
	for _, tt := range tests {
		if got := c.Quantile(tt.q); got != tt.want {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestQuantilePanics(t *testing.T) {
	check := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	check("empty", func() { (&CDF{}).Quantile(0.5) })
	check("q<0", func() { NewCDF([]float64{1}).Quantile(-0.1) })
	check("q>1", func() { NewCDF([]float64{1}).Quantile(1.1) })
}

func TestPoints(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5})
	pts := c.Points(5)
	if len(pts) != 5 {
		t.Fatalf("Points(5) returned %d points", len(pts))
	}
	if pts[0].Y != 0 || pts[len(pts)-1].Y != 1 {
		t.Errorf("Points Y range = [%v, %v], want [0, 1]", pts[0].Y, pts[len(pts)-1].Y)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Y < pts[i-1].Y {
			t.Errorf("Points not monotonic at %d: %+v after %+v", i, pts[i], pts[i-1])
		}
	}
}

func TestSummarize(t *testing.T) {
	c := NewCDF(nil)
	if s := c.Summarize(); s.N != 0 {
		t.Errorf("empty Summarize = %+v, want zero", s)
	}
	for i := 1; i <= 100; i++ {
		c.Add(float64(i))
	}
	s := c.Summarize()
	if s.N != 100 || s.Min != 1 || s.Max != 100 || s.P50 != 50 || s.P90 != 90 || s.P99 != 99 {
		t.Errorf("Summarize = %+v", s)
	}
	if s.String() == "" {
		t.Error("Summary.String empty")
	}
}

// Property: At is monotone non-decreasing and within [0, 1].
func TestCDFAtMonotoneProperty(t *testing.T) {
	f := func(samples []float64, a, b float64) bool {
		if len(samples) == 0 {
			return true
		}
		for _, v := range samples {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		c := NewCDF(samples)
		fa, fb := c.At(a), c.At(b)
		return fa >= 0 && fb <= 1 && fa <= fb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Quantile(At(x)) ≤ x for any sample x (nearest-rank consistency).
func TestQuantileAtConsistency(t *testing.T) {
	f := func(samples []float64) bool {
		clean := samples[:0:0]
		for _, v := range samples {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		c := NewCDF(clean)
		for _, x := range clean {
			if q := c.At(x); c.Quantile(q) > x {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestExp(t *testing.T) {
	g := NewRNG(1)
	if got := g.Exp(0); got != 0 {
		t.Errorf("Exp(0) = %v, want 0", got)
	}
	if got := g.Exp(-1); got != 0 {
		t.Errorf("Exp(-1) = %v, want 0", got)
	}
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := g.Exp(10)
		if v < 0 {
			t.Fatal("negative exponential sample")
		}
		sum += v
	}
	mean := sum / n
	if mean < 9 || mean > 11 {
		t.Errorf("Exp(10) sample mean = %v, want ≈10", mean)
	}
}

func TestLogUniformBounds(t *testing.T) {
	g := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := g.LogUniform(1e3, 1e12)
		if v < 1e3 || v > 1e12 {
			t.Fatalf("LogUniform out of bounds: %v", v)
		}
	}
	if got := g.LogUniform(5, 5); got != 5 {
		t.Errorf("LogUniform(5,5) = %v, want 5", got)
	}
	// swapped bounds are tolerated
	v := g.LogUniform(100, 10)
	if v < 10 || v > 100 {
		t.Errorf("LogUniform(swapped) out of range: %v", v)
	}
}

func TestLogUniformPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LogUniform(0, 1) did not panic")
		}
	}()
	NewRNG(1).LogUniform(0, 1)
}

// LogUniform spreads mass evenly per decade: about half the samples of
// [1, 10^4] fall below 10^2.
func TestLogUniformDecades(t *testing.T) {
	g := NewRNG(11)
	const n = 40000
	below := 0
	for i := 0; i < n; i++ {
		if g.LogUniform(1, 1e4) < 1e2 {
			below++
		}
	}
	frac := float64(below) / n
	if frac < 0.47 || frac > 0.53 {
		t.Errorf("fraction below midpoint decade = %v, want ≈0.5", frac)
	}
}

func TestZipfSmall(t *testing.T) {
	g := NewRNG(3)
	counts := make([]int, 11)
	for i := 0; i < 20000; i++ {
		k := g.Zipf(10, 1.0)
		if k < 1 || k > 10 {
			t.Fatalf("Zipf out of range: %d", k)
		}
		counts[k]++
	}
	if counts[1] <= counts[2] || counts[2] <= counts[5] {
		t.Errorf("Zipf counts not decreasing: %v", counts[1:])
	}
}

func TestZipfTableMatchesDirect(t *testing.T) {
	zt := NewZipfTable(50, 1.2)
	g := NewRNG(5)
	counts := make([]int, 51)
	for i := 0; i < 50000; i++ {
		k := zt.Sample(g)
		if k < 1 || k > 50 {
			t.Fatalf("ZipfTable out of range: %d", k)
		}
		counts[k]++
	}
	if counts[1] <= counts[3] || counts[3] <= counts[10] {
		t.Errorf("ZipfTable counts not decreasing: 1:%d 3:%d 10:%d", counts[1], counts[3], counts[10])
	}
}

func TestZipfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Zipf(0, 1) did not panic")
		}
	}()
	NewRNG(1).Zipf(0, 1)
}

func TestPiecewiseLogSamplerValidation(t *testing.T) {
	cases := []struct {
		name  string
		bands []Band
	}{
		{"empty", nil},
		{"negative weight", []Band{{Weight: -1, Lo: 1, Hi: 2}}},
		{"zero weights", []Band{{Weight: 0, Lo: 1, Hi: 2}}},
		{"bad bounds", []Band{{Weight: 1, Lo: 0, Hi: 2}}},
		{"inverted", []Band{{Weight: 1, Lo: 5, Hi: 2}}},
	}
	for _, tt := range cases {
		if _, err := NewPiecewiseLogSampler(tt.bands); err == nil {
			t.Errorf("%s: expected error", tt.name)
		}
	}
}

// The FB-2009 three-band mixture reproduces its band fractions.
func TestPiecewiseLogSamplerFractions(t *testing.T) {
	s, err := NewPiecewiseLogSampler([]Band{
		{Weight: 0.40, Lo: 1e3, Hi: 1e6},
		{Weight: 0.49, Lo: 1e6, Hi: 30e9},
		{Weight: 0.11, Lo: 30e9, Hi: 1e12},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := NewRNG(9)
	const n = 50000
	var small, mid, large int
	for i := 0; i < n; i++ {
		v := s.Sample(g)
		switch {
		case v < 1e6:
			small++
		case v <= 30e9:
			mid++
		default:
			large++
		}
	}
	if f := float64(small) / n; math.Abs(f-0.40) > 0.02 {
		t.Errorf("small fraction = %v, want ≈0.40", f)
	}
	if f := float64(mid) / n; math.Abs(f-0.49) > 0.02 {
		t.Errorf("mid fraction = %v, want ≈0.49", f)
	}
	if f := float64(large) / n; math.Abs(f-0.11) > 0.02 {
		t.Errorf("large fraction = %v, want ≈0.11", f)
	}
}

// Property: samples always fall inside the union of band ranges.
func TestPiecewiseSampleBoundsProperty(t *testing.T) {
	s, err := NewPiecewiseLogSampler([]Band{
		{Weight: 1, Lo: 10, Hi: 100},
		{Weight: 2, Lo: 1000, Hi: 5000},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := NewRNG(13)
	for i := 0; i < 20000; i++ {
		v := s.Sample(g)
		in := (v >= 10 && v <= 100) || (v >= 1000 && v <= 5000)
		if !in {
			t.Fatalf("sample %v outside all bands", v)
		}
	}
}

func TestPermAndIntn(t *testing.T) {
	g := NewRNG(21)
	p := g.Perm(10)
	sorted := append([]int(nil), p...)
	sort.Ints(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatalf("Perm not a permutation: %v", p)
		}
	}
	for i := 0; i < 1000; i++ {
		if v := g.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}
