// Package sweep runs independent deterministic simulations and memoizes
// isolated ones.
//
// Every paper artifact evaluates isolated (platform, application, size,
// calibration) points that share no mutable state: the Figs. 5–9
// measurement sweeps and the cross-point bisections of §IV evaluate the
// closed-form cost model, and the Fig. 10 trace comparison, the resilience
// report, chaos rounds and the cross-point bands replay whole traces. Map
// fans the replays out across a bounded worker pool while returning results
// in input order, so parallel output is byte-identical to serial output.
// A closed-form point costs microseconds, less than handing it to a worker,
// so Runner.RunPoints evaluates points inline. The Cache memoizes isolated
// runs on a content key, so a size probed by Fig. 5, the normalization
// baseline and a cross-point sweep simulates exactly once per process.
//
// The contract work submitted to Map must honor: thunks share no mutable
// state with each other or the caller (reading shared immutable inputs is
// fine). The race test layer (`go test -race ./...`) enforces it.
package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"

	"hybridmr/internal/mapreduce"
)

// Map evaluates fn(i) for every i in [0, n) on up to workers goroutines and
// returns the results in input order. workers <= 0 means GOMAXPROCS; with
// one worker (or n == 1) it runs inline on the calling goroutine, which is
// exactly the pre-parallel serial behavior. Indices are claimed in
// contiguous batches so sub-microsecond cost-model evaluations amortize the
// scheduling overhead.
func Map[T any](workers, n int, fn func(int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	workers = normWorkers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := range out {
			out[i] = fn(i)
		}
		return out
	}
	batch := n / (workers * 4)
	if batch < 1 {
		batch = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(batch))) - batch
				if lo >= n {
					return
				}
				hi := lo + batch
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					out[i] = fn(i)
				}
			}
		}()
	}
	wg.Wait()
	return out
}

func normWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Point is one isolated simulation: a job on a platform.
type Point struct {
	Platform *mapreduce.Platform
	Job      mapreduce.Job
}

// Runner evaluates batches of independent simulation points through a
// memoizing result cache and holds the worker count that replay fan-outs
// pass to Map. The zero value is not usable; construct with New.
type Runner struct {
	workers int
	cache   *Cache
}

// New returns a runner with its own empty cache. workers <= 0 means
// GOMAXPROCS.
func New(workers int) *Runner {
	return &Runner{workers: normWorkers(workers), cache: NewCache()}
}

// Workers returns the worker count for Map fan-outs.
func (r *Runner) Workers() int { return r.workers }

// Cache returns the runner's memoization cache.
func (r *Runner) Cache() *Cache { return r.cache }

// RunIsolated runs one job alone on the clean platform, memoized: a
// key-equal point already simulated (by any worker) returns the cached
// result with the caller's Job identity restored. Probes under a fault
// scenario go through Cache().RunIsolated with the schedule's fingerprint.
func (r *Runner) RunIsolated(p *mapreduce.Platform, job mapreduce.Job) mapreduce.Result {
	return r.cache.RunIsolated(p, job, 0)
}

// RunPoints evaluates every point in order on the calling goroutine and
// returns one result per point, memoizing each isolated run. A point is a
// closed-form cost-model evaluation of a few microseconds: on 2 vCPUs a
// pooled Fig. 5 batch ran at ×0.74–0.89 of this loop, so only replays,
// which take milliseconds, fan out through Map.
func (r *Runner) RunPoints(pts []Point) []mapreduce.Result {
	out := make([]mapreduce.Result, len(pts))
	for i, pt := range pts {
		out[i] = r.cache.RunIsolated(pt.Platform, pt.Job, 0)
	}
	return out
}

// def is the process-wide runner the figure builders and CLIs share; its
// cache is what makes repeated points across Fig. 5, the normalization
// baseline and the cross-point sweeps simulate exactly once per process.
var def atomic.Pointer[Runner]

func init() { def.Store(New(0)) }

// Default returns the process-wide runner.
func Default() *Runner { return def.Load() }

// SetDefault replaces the process-wide runner (tests use this to pin worker
// counts and isolate caches).
func SetDefault(r *Runner) {
	if r == nil {
		panic("sweep: nil default runner")
	}
	def.Store(r)
}

// SetDefaultWorkers resizes the process-wide pool (the CLIs' -parallel
// flag), keeping the existing cache.
func SetDefaultWorkers(n int) {
	def.Store(&Runner{workers: normWorkers(n), cache: Default().cache})
}
