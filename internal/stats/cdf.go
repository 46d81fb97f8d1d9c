// Package stats provides the small statistics substrate used across the
// reproduction: empirical CDFs (the paper's Figures 3 and 10 are CDFs),
// summary statistics, and deterministic samplers for the workload generator.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// CDF is an empirical cumulative distribution function over float64 samples.
// The zero value is an empty CDF; add samples with Add or build one directly
// from a slice with NewCDF.
type CDF struct {
	sorted  []float64
	dirty   []float64
	isClean bool
}

// NewCDF builds a CDF from the given samples. The input slice is copied.
func NewCDF(samples []float64) *CDF {
	c := &CDF{}
	c.dirty = append(c.dirty, samples...)
	return c
}

// Add appends one sample.
func (c *CDF) Add(v float64) {
	c.dirty = append(c.dirty, v)
	c.isClean = false
}

// Len reports the number of samples.
func (c *CDF) Len() int { return len(c.dirty) }

func (c *CDF) clean() {
	if c.isClean {
		return
	}
	c.sorted = append(c.sorted[:0], c.dirty...)
	sort.Float64s(c.sorted)
	c.isClean = true
}

// At returns the fraction of samples ≤ v, i.e. P(X ≤ v). An empty CDF
// returns 0 everywhere.
func (c *CDF) At(v float64) float64 {
	c.clean()
	if len(c.sorted) == 0 {
		return 0
	}
	// Index of the first sample > v.
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > v })
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) using the nearest-rank
// method. Quantile(0) is the minimum and Quantile(1) the maximum. It panics
// on an empty CDF or q outside [0, 1].
func (c *CDF) Quantile(q float64) float64 {
	c.clean()
	if len(c.sorted) == 0 {
		panic("stats: Quantile of empty CDF")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic(fmt.Sprintf("stats: Quantile(%v) out of [0,1]", q))
	}
	// The 1e-9 slack keeps ranks that are exact in rational arithmetic
	// (e.g. q = k/n) from being pushed up a rank by floating-point error.
	i := int(math.Ceil(q*float64(len(c.sorted))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c.sorted) {
		i = len(c.sorted) - 1
	}
	return c.sorted[i]
}

// Min returns the smallest sample; it panics on an empty CDF.
func (c *CDF) Min() float64 { return c.Quantile(0) }

// Max returns the largest sample; it panics on an empty CDF.
func (c *CDF) Max() float64 { return c.Quantile(1) }

// Mean returns the arithmetic mean, or 0 for an empty CDF.
func (c *CDF) Mean() float64 {
	if len(c.dirty) == 0 {
		return 0
	}
	var s float64
	for _, v := range c.dirty {
		s += v
	}
	return s / float64(len(c.dirty))
}

// Points samples the CDF at n evenly spaced quantiles (including 0 and 1)
// and returns (value, fraction) pairs suitable for plotting. n must be ≥ 2.
func (c *CDF) Points(n int) []Point {
	if n < 2 {
		panic("stats: Points needs n ≥ 2")
	}
	c.clean()
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		q := float64(i) / float64(n-1)
		pts = append(pts, Point{X: c.Quantile(q), Y: q})
	}
	return pts
}

// Point is an (x, y) pair of a plotted series.
type Point struct {
	X, Y float64
}

// Summary holds the order statistics the experiment reports print.
type Summary struct {
	N              int
	Mean, Min, Max float64
	P50, P90, P99  float64
}

// Summarize computes a Summary of the CDF. An empty CDF yields a zero
// Summary.
func (c *CDF) Summarize() Summary {
	if c.Len() == 0 {
		return Summary{}
	}
	return Summary{
		N:    c.Len(),
		Mean: c.Mean(),
		Min:  c.Min(),
		Max:  c.Max(),
		P50:  c.Quantile(0.50),
		P90:  c.Quantile(0.90),
		P99:  c.Quantile(0.99),
	}
}

// String renders the summary on one line, for experiment logs.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f min=%.2f p50=%.2f p90=%.2f p99=%.2f max=%.2f",
		s.N, s.Mean, s.Min, s.P50, s.P90, s.P99, s.Max)
}
