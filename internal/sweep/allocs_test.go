package sweep

import (
	"testing"

	"hybridmr/internal/mapreduce"
	"hybridmr/internal/units"
)

// TestKeyForSteadyStateAllocs pins the cache-key hot path — KeyFor's two
// maphash hashes and the file system's Name — plus the warm-hit lookup of
// Cache.Do at zero allocations, on the healthy platform and on the degraded
// and gray-throttled views every failure-aware ETA probe keys. Every probe
// of a sweep takes this path before anything is simulated, so the memoized
// fast path must stay off the allocator.
func TestKeyForSteadyStateAllocs(t *testing.T) {
	p := mapreduce.MustArch(mapreduce.OutOFS, mapreduce.DefaultCalibration())
	degraded, err := p.View(2, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	gray, err := degraded.View(0, 0, 1.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	job := mapreduce.Job{ID: "probe", App: wordcount(), Input: units.GB}
	faulted := mapreduce.Job{ID: "probe", App: wordcount(), Input: 2 * units.GB}

	c := NewCache()
	compute := func() mapreduce.Result { return mapreduce.Result{Platform: p.Name} }
	warm := KeyFor(p, job, 0)
	c.Do(warm, compute)

	for _, view := range []*mapreduce.Platform{p, degraded, gray} {
		var sink Key
		avg := testing.AllocsPerRun(1000, func() {
			sink = KeyFor(view, job, 0)
			sink = KeyFor(view, faulted, 0xfeed)
			c.Do(warm, compute)
		})
		if avg != 0 {
			t.Errorf("%s: clean+faulted KeyFor+warm Do: %v allocs/op, want 0", view.Name, avg)
		}
		if sink == (Key{}) {
			t.Errorf("%s: faulted KeyFor returned the zero key", view.Name)
		}
	}
}
