package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a logarithmically bucketed histogram for positive values
// spanning many orders of magnitude (job sizes, execution times). The zero
// value is not usable; build one with NewHistogram.
type Histogram struct {
	lo, hi  float64
	perDec  int
	counts  []int
	under   int
	over    int
	samples int
}

// NewHistogram builds a histogram over [lo, hi) with bucketsPerDecade
// buckets per factor of ten. Values below lo and at or above hi are counted
// in under/overflow buckets.
func NewHistogram(lo, hi float64, bucketsPerDecade int) (*Histogram, error) {
	if lo <= 0 || hi <= lo {
		return nil, fmt.Errorf("stats: histogram bounds [%v, %v)", lo, hi)
	}
	if bucketsPerDecade < 1 {
		return nil, fmt.Errorf("stats: %d buckets per decade", bucketsPerDecade)
	}
	decades := math.Log10(hi / lo)
	n := int(math.Ceil(decades * float64(bucketsPerDecade)))
	if n < 1 {
		n = 1
	}
	return &Histogram{lo: lo, hi: hi, perDec: bucketsPerDecade, counts: make([]int, n)}, nil
}

// Add records one value.
func (h *Histogram) Add(v float64) {
	h.samples++
	switch {
	case v < h.lo:
		h.under++
	case v >= h.hi:
		h.over++
	default:
		i := int(math.Log10(v/h.lo) * float64(h.perDec))
		if i >= len(h.counts) {
			i = len(h.counts) - 1
		}
		h.counts[i]++
	}
}

// N reports the number of recorded samples.
func (h *Histogram) N() int { return h.samples }

// Bucket describes one histogram bucket.
type Bucket struct {
	Lo, Hi float64
	Count  int
}

// Buckets returns the in-range buckets in ascending order.
func (h *Histogram) Buckets() []Bucket {
	out := make([]Bucket, len(h.counts))
	for i, c := range h.counts {
		out[i] = Bucket{
			Lo:    h.lo * math.Pow(10, float64(i)/float64(h.perDec)),
			Hi:    h.lo * math.Pow(10, float64(i+1)/float64(h.perDec)),
			Count: c,
		}
	}
	return out
}

// Render draws the histogram as text bars, one per non-empty bucket, scaled
// to the given width.
func (h *Histogram) Render(width int) string {
	if width < 1 {
		width = 40
	}
	max := 1
	for _, c := range h.counts {
		if c > max {
			max = c
		}
	}
	var b strings.Builder
	for _, bk := range h.Buckets() {
		if bk.Count == 0 {
			continue
		}
		bar := strings.Repeat("#", bk.Count*width/max)
		if bar == "" {
			bar = "."
		}
		fmt.Fprintf(&b, "%10.3g – %-10.3g %6d %s\n", bk.Lo, bk.Hi, bk.Count, bar)
	}
	if h.under > 0 {
		fmt.Fprintf(&b, "%10s – %-10.3g %6d\n", "<", h.lo, h.under)
	}
	if h.over > 0 {
		fmt.Fprintf(&b, "%10.3g – %-10s %6d\n", h.hi, "∞", h.over)
	}
	return b.String()
}
