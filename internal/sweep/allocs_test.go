package sweep

import (
	"testing"

	"hybridmr/internal/mapreduce"
	"hybridmr/internal/units"
)

// TestKeyForSteadyStateAllocs pins the cache-key hot paths — KeyFor and the
// fingerprint helpers it runs (calHash, specFP, profileFP, the hashFP
// word/float/str/flag fold steps), plus the shard pick and warm-hit lookup
// of Cache.Do — at zero allocations. Every probe of a sweep takes this path
// before anything is simulated, so the memoized fast path must stay off the
// allocator (the calHash memo's one store per calibration change is warmed
// up before measuring).
func TestKeyForSteadyStateAllocs(t *testing.T) {
	p := mapreduce.MustArch(mapreduce.OutOFS, mapreduce.DefaultCalibration())
	job := mapreduce.Job{ID: "probe", App: wordcount(), Input: units.GB}
	faulted := mapreduce.Job{ID: "probe", App: wordcount(), Input: 2 * units.GB}

	c := NewCache()
	compute := func() mapreduce.Result { return mapreduce.Result{Platform: p.Name} }
	warm := KeyFor(p, job, 0) // warms the calHash memo and the cache shard
	c.Do(warm, compute)

	var sink Key
	avg := testing.AllocsPerRun(1000, func() {
		sink = KeyFor(p, job, 0)
		sink = KeyFor(p, faulted, 0xfeed)
		c.Do(warm, compute)
	})
	if avg != 0 {
		t.Errorf("clean+faulted KeyFor+warm Do: %v allocs/op, want 0", avg)
	}
	if sink == (Key{}) {
		t.Error("faulted KeyFor returned the zero key")
	}
}
