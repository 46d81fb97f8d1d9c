package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNewHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(0, 10, 1); err == nil {
		t.Error("lo 0 accepted")
	}
	if _, err := NewHistogram(10, 10, 1); err == nil {
		t.Error("hi == lo accepted")
	}
	if _, err := NewHistogram(1, 10, 0); err == nil {
		t.Error("0 buckets per decade accepted")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h, err := NewHistogram(1, 1000, 1) // 3 decade buckets
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{2, 5, 20, 200, 0.5, 5000} {
		h.Add(v)
	}
	if h.N() != 6 {
		t.Errorf("N = %d", h.N())
	}
	if h.under != 1 || h.over != 1 {
		t.Errorf("out of range = %d/%d", h.under, h.over)
	}
	buckets := h.Buckets()
	if len(buckets) != 3 {
		t.Fatalf("%d buckets", len(buckets))
	}
	if buckets[0].Count != 2 || buckets[1].Count != 1 || buckets[2].Count != 1 {
		t.Errorf("counts = %+v", buckets)
	}
	// Bucket bounds tile [lo, hi) without gaps.
	for i := 1; i < len(buckets); i++ {
		if buckets[i].Lo != buckets[i-1].Hi {
			t.Errorf("gap between buckets %d and %d", i-1, i)
		}
	}
}

// Property: every added value is counted exactly once.
func TestHistogramConservationProperty(t *testing.T) {
	f := func(vals []float64) bool {
		h, err := NewHistogram(0.001, 1e6, 3)
		if err != nil {
			return false
		}
		n := 0
		for _, v := range vals {
			if v != v || v < 0 { // NaN or negative: skip
				continue
			}
			h.Add(v)
			n++
		}
		total := 0
		for _, b := range h.Buckets() {
			total += b.Count
		}
		return total+h.under+h.over == n && h.N() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestHistogramRender(t *testing.T) {
	h, _ := NewHistogram(1, 100, 1)
	for i := 0; i < 10; i++ {
		h.Add(5)
	}
	h.Add(50)
	h.Add(0.1)
	h.Add(1000)
	out := h.Render(20)
	if !strings.Contains(out, "#") {
		t.Errorf("no bars:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // two buckets + under + over
		t.Errorf("%d lines:\n%s", len(lines), out)
	}
	if h.Render(0) == "" {
		t.Error("zero width should fall back to a default")
	}
}
