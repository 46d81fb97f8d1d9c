package sweep

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hybridmr/internal/mapreduce"
	"hybridmr/internal/units"
)

// quickCfg returns a deterministic testing/quick configuration so property
// failures reproduce.
func quickCfg(seed int64) *quick.Config {
	return &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(seed))}
}

// TestQuickMapOrderInvariant: for arbitrary inputs, Map's output equals the
// serial evaluation regardless of worker count — 1, 2 and 8 workers all
// produce the same, input-ordered slice.
func TestQuickMapOrderInvariant(t *testing.T) {
	prop := func(xs []int64) bool {
		fn := func(i int) int64 { return xs[i]*31 + int64(i) }
		want := make([]int64, len(xs))
		for i := range xs {
			want[i] = fn(i)
		}
		for _, workers := range []int{1, 2, 8} {
			if got := Map(workers, len(xs), fn); len(xs) > 0 && !reflect.DeepEqual(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(1)); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCacheTotality: for an arbitrary lookup sequence, every lookup is
// classified as exactly one of hit or miss, misses equal the number of
// distinct keys, and every key's cached value is the first computation's.
func TestQuickCacheTotality(t *testing.T) {
	prop := func(seq []uint8) bool {
		c := NewCache()
		distinct := make(map[Key]units.Bytes)
		for n, b := range seq {
			k := Key{App: 1, Input: units.Bytes(b % 16)}
			val := units.Bytes(n) // first write wins; later values must not overwrite
			r := c.Do(k, func() mapreduce.Result {
				return mapreduce.Result{Exec: 1, Job: mapreduce.Job{Input: val}}
			})
			if first, seen := distinct[k]; seen {
				if r.Job.Input != first {
					return false // memoized value drifted
				}
			} else {
				distinct[k] = r.Job.Input
			}
		}
		hits, misses := c.Stats()
		return hits+misses == uint64(len(seq)) &&
			misses == uint64(len(distinct)) &&
			c.Len() == len(distinct)
	}
	if err := quick.Check(prop, quickCfg(2)); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRunnerOrderInvariant: a runner returns simulation results in
// point order, each equal to the point's own isolated run, for arbitrary
// subsets (repeats included) of a probe grid.
func TestQuickRunnerOrderInvariant(t *testing.T) {
	grid := fig5Points(t)
	prop := func(picks []uint8) bool {
		pts := make([]Point, len(picks))
		for i, b := range picks {
			pts[i] = grid[int(b)%len(grid)]
		}
		got := New(1).RunPoints(pts)
		if len(got) != len(pts) {
			return false
		}
		for i, pt := range pts {
			want := pt.Platform.RunIsolated(pt.Job)
			if got[i].Exec != want.Exec || got[i].Platform != want.Platform ||
				got[i].Job.Input != want.Job.Input {
				return false
			}
		}
		return true
	}
	cfg := quickCfg(3)
	cfg.MaxCount = 40
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
