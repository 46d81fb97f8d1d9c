package sweep

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"hybridmr/internal/apps"
	"hybridmr/internal/mapreduce"
	"hybridmr/internal/units"
)

func cal() mapreduce.Calibration { return mapreduce.DefaultCalibration() }

func wordcount() apps.Profile { return apps.Wordcount() }

// fig5Points builds a Fig. 5-sized probe grid: the shuffle-intensive size
// grid on all four Table I architectures.
func fig5Points(t testing.TB) []Point {
	t.Helper()
	sizesGB := []float64{0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256, 448}
	var pts []Point
	for _, a := range mapreduce.Arches() {
		p, err := mapreduce.NewArch(a, cal())
		if err != nil {
			t.Fatal(err)
		}
		for i, gb := range sizesGB {
			pts = append(pts, Point{
				Platform: p,
				Job:      mapreduce.Job{ID: fmt.Sprintf("p%d", i), App: wordcount(), Input: units.GiB(gb)},
			})
		}
	}
	return pts
}

// TestMapOrdersResults checks input-ordered results for every worker count,
// including pools larger than the input.
func TestMapOrdersResults(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 64} {
		for _, n := range []int{0, 1, 7, 100, 1000} {
			got := Map(workers, n, func(i int) int { return i * i })
			if len(got) != n {
				t.Fatalf("workers=%d n=%d: %d results", workers, n, len(got))
			}
			for i, v := range got {
				if v != i*i {
					t.Fatalf("workers=%d n=%d: out[%d] = %d", workers, n, i, v)
				}
			}
		}
	}
}

// TestMapRunsEveryIndexOnce hammers Map with tiny and large inputs and
// asserts each index is evaluated exactly once (no double-claimed batches).
func TestMapRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{1, 2, 17, 256, 4096} {
		counts := make([]atomic.Int32, n)
		Map(8, n, func(i int) struct{} {
			counts[i].Add(1)
			return struct{}{}
		})
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, c)
			}
		}
	}
}

// TestCacheSingleExecution hammers one cache from many goroutines issuing
// overlapping key sets and asserts — via an atomic run counter — that each
// distinct key is computed exactly once.
func TestCacheSingleExecution(t *testing.T) {
	c := NewCache()
	const keys = 32
	const goroutines = 16
	var computed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				// Each goroutine walks the key space from a different
				// offset so first-touches are spread across goroutines.
				k := Key{App: 1, Input: units.Bytes((i + g) % keys)}
				r := c.Do(k, func() mapreduce.Result {
					computed.Add(1)
					return mapreduce.Result{Platform: "hammer", Exec: 1}
				})
				if r.Platform != "hammer" {
					t.Error("wrong cached result")
				}
			}
		}()
	}
	wg.Wait()
	if got := computed.Load(); got != keys {
		t.Fatalf("computed %d times for %d distinct keys", got, keys)
	}
	hits, misses := c.Stats()
	if misses != keys {
		t.Errorf("misses = %d, want %d", misses, keys)
	}
	if hits+misses != keys*goroutines {
		t.Errorf("hits+misses = %d, want %d lookups", hits+misses, keys*goroutines)
	}
	if c.Len() != keys {
		t.Errorf("cache holds %d entries, want %d", c.Len(), keys)
	}
}

// TestRunnerConcurrentSubmissions submits the same point batch from many
// goroutines concurrently: every submission gets input-ordered results, and
// the shared cache simulates each distinct point exactly once (checked both
// through Stats and through Platform.RunIsolated equivalence).
func TestRunnerConcurrentSubmissions(t *testing.T) {
	pts := fig5Points(t)
	serial := make([]mapreduce.Result, len(pts))
	for i, pt := range pts {
		serial[i] = pt.Platform.RunIsolated(pt.Job)
	}
	r := New(8)
	const submitters = 12
	results := make([][]mapreduce.Result, submitters)
	var wg sync.WaitGroup
	wg.Add(submitters)
	for s := 0; s < submitters; s++ {
		s := s
		go func() {
			defer wg.Done()
			results[s] = r.RunPoints(pts)
		}()
	}
	wg.Wait()
	for s, got := range results {
		if len(got) != len(pts) {
			t.Fatalf("submitter %d: %d results", s, len(got))
		}
		for i, res := range got {
			want := serial[i]
			if (res.Err == nil) != (want.Err == nil) || res.Exec != want.Exec || res.MapPhase != want.MapPhase {
				t.Fatalf("submitter %d point %d: got %+v want %+v", s, i, res, want)
			}
			if res.Job.ID != pts[i].Job.ID {
				t.Fatalf("submitter %d point %d: job ID %q, want caller's %q", s, i, res.Job.ID, pts[i].Job.ID)
			}
		}
	}
	// Distinct points: sizes × architectures; every other lookup must hit.
	distinct := uint64(len(pts))
	hits, misses := r.Cache().Stats()
	if misses != distinct {
		t.Errorf("misses = %d, want %d distinct points", misses, distinct)
	}
	if hits+misses != uint64(submitters*len(pts)) {
		t.Errorf("lookups = %d, want %d", hits+misses, submitters*len(pts))
	}
}

// TestCacheKeyExcludesJobIdentity: same point under different job IDs and
// submit times is one simulation; different sizes or calibrations are not.
func TestCacheKeyExcludesJobIdentity(t *testing.T) {
	p, err := mapreduce.NewArch(mapreduce.UpOFS, cal())
	if err != nil {
		t.Fatal(err)
	}
	a := KeyFor(p, mapreduce.Job{ID: "fig", App: wordcount(), Input: units.GB}, 0)
	b := KeyFor(p, mapreduce.Job{ID: "norm", App: wordcount(), Input: units.GB, Submit: 99}, 0)
	if a != b {
		t.Errorf("job identity leaked into the key:\n%+v\n%+v", a, b)
	}
	if c := KeyFor(p, mapreduce.Job{ID: "fig", App: wordcount(), Input: 2 * units.GB}, 0); c == a {
		t.Error("size not in key")
	}
	recal := cal()
	recal.SpillPasses = 2
	p2, err := mapreduce.NewArch(mapreduce.UpOFS, recal)
	if err != nil {
		t.Fatal(err)
	}
	if c := KeyFor(p2, mapreduce.Job{ID: "fig", App: wordcount(), Input: units.GB}, 0); c == a {
		t.Error("calibration not in key")
	}
}

// TestRunnerMemoizesErrors: a rejected point (up-HDFS beyond its capacity)
// is cached like any other result and keeps its error on every lookup.
func TestRunnerMemoizesErrors(t *testing.T) {
	p, err := mapreduce.NewArch(mapreduce.UpHDFS, cal())
	if err != nil {
		t.Fatal(err)
	}
	r := New(2)
	job := mapreduce.Job{ID: "big", App: wordcount(), Input: 400 * units.GB}
	first := r.RunIsolated(p, job)
	if first.Err == nil {
		t.Fatal("up-HDFS accepted a 400 GB job")
	}
	second := r.RunIsolated(p, job)
	if second.Err != first.Err {
		t.Error("cached error not reused")
	}
	if _, misses := r.Cache().Stats(); misses != 1 {
		t.Errorf("misses = %d, want 1", misses)
	}
}

// TestSetDefaultWorkersKeepsCache: resizing the process-wide pool (the
// CLIs' -parallel flag) must not discard already-memoized points.
func TestSetDefaultWorkersKeepsCache(t *testing.T) {
	old := Default()
	defer SetDefault(old)
	SetDefault(New(2))
	p, err := mapreduce.NewArch(mapreduce.OutOFS, cal())
	if err != nil {
		t.Fatal(err)
	}
	Default().RunIsolated(p, mapreduce.Job{ID: "x", App: wordcount(), Input: units.GB})
	cache := Default().Cache()
	SetDefaultWorkers(4)
	if Default().Workers() != 4 {
		t.Fatalf("workers = %d", Default().Workers())
	}
	if Default().Cache() != cache {
		t.Error("SetDefaultWorkers replaced the cache")
	}
}
