package sweep

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"hybridmr/internal/cluster"
	"hybridmr/internal/mapreduce"
	"hybridmr/internal/obs"
	"hybridmr/internal/units"
)

// Key identifies one isolated simulation point by content: a hash of the
// platform (name, cluster spec, file-system name and calibration, so
// ablation variants, re-tuned calibrations and degraded views — whose
// platform name carries their levels — never alias the Table I
// architectures), a hash of the application profile, the job's
// size and task-layout overrides, and the fault scenario. Job.ID and
// Job.Submit are deliberately excluded — RunIsolated ignores them, which is
// what lets "fig", "norm" and "sweep" probes of the same point share one
// simulation. KeyFor builds it as a positional literal, so adding a field
// fails to compile until KeyFor fills it.
type Key struct {
	Plat, App uint64
	Input     units.Bytes
	Reducers  int
	MapTasks  int
	// Faults is the fault schedule's Fingerprint when the probe estimates a
	// point under a fault scenario (the failure-aware scheduler's degraded
	// ETAs); 0 — the clean sentinel — otherwise. A faulted estimate can
	// therefore never alias a clean entry, even on a degraded platform whose
	// spec and FS name happen to match a real one.
	Faults uint64
}

// platformID is what RunIsolated reads of a platform, as one comparable
// value. The file system stands in by its name, which is only its type
// ("HDFS" or "OFS"): a view's storage loss and throttle are not in it, but
// in the platform name, which Platform.View gives every view's levels.
// maphash.Comparable hashes it by the ==
// operator's field-by-field equality, so every field of Spec and Calibration
// is in the key without being listed here — a new field cannot be forgotten.
type platformID struct {
	name string
	spec cluster.Spec
	fs   string
	cal  mapreduce.Calibration
}

// keySeed seeds every Key hash. It is per process: keys compare only within
// one process and are never printed or persisted.
var keySeed = maphash.MakeSeed()

// KeyFor builds the content key of running job isolated on p under the
// fault scenario with Fingerprint faultsFP; 0 is the clean key.
func KeyFor(p *mapreduce.Platform, job mapreduce.Job, faultsFP uint64) Key {
	return Key{
		maphash.Comparable(keySeed, platformID{p.Name, p.Spec, p.FS.Name(), p.Cal}),
		maphash.Comparable(keySeed, job.App),
		job.Input,
		job.Reducers,
		job.MapTasks,
		faultsFP,
	}
}

// Cache memoizes isolated simulation results by Key. It is safe for
// concurrent use; concurrent requests for the same key run the simulation
// exactly once (the losers block until the winner's result is ready).
//
// The entries live in one RWMutex-guarded typed map: a typed map probes
// without boxing the Key into an interface, and the read lock keeps the hit
// path contention-free across the parallel replays.
type Cache struct {
	mu     sync.RWMutex
	m      map[Key]*entry
	hits   atomic.Uint64
	misses atomic.Uint64

	// obsHits/obsMisses mirror the counters into an observability registry
	// when attached (Observe); nil absorbs the updates.
	obsHits   *obs.Counter
	obsMisses *obs.Counter
}

type entry struct {
	once sync.Once
	res  mapreduce.Result
}

// NewCache returns an empty cache.
func NewCache() *Cache { return &Cache{} }

// Do returns the cached result for k, computing it with compute on the
// first request. Every simulation (and its error, if the platform rejects
// the job) is computed exactly once per key per cache lifetime.
func (c *Cache) Do(k Key, compute func() mapreduce.Result) mapreduce.Result {
	c.mu.RLock()
	e, ok := c.m[k]
	c.mu.RUnlock()
	if !ok {
		// First request for this key (or a race with one): the write-locked
		// re-check admits exactly one entry, so exactly one Do per key is a
		// miss.
		c.mu.Lock()
		e, ok = c.m[k]
		if !ok {
			if c.m == nil {
				c.m = make(map[Key]*entry)
			}
			e = &entry{}
			c.m[k] = e
		}
		c.mu.Unlock()
	}
	if ok {
		c.hits.Add(1)
		c.obsHits.Inc()
	} else {
		c.misses.Add(1)
		c.obsMisses.Inc()
	}
	e.once.Do(func() { e.res = compute() })
	return e.res
}

// RunIsolated is Platform.RunIsolated memoized through the cache. A
// nonzero faultsFP keys a probe under a fault scenario — p is then typically
// a degraded platform view and faultsFP the schedule's Fingerprint — so the
// entry never aliases a clean estimate of the same point; 0 is a clean run.
// The returned result carries the caller's Job (the key excludes Job.ID and
// Job.Submit, so a cached result may have been computed under another ID).
func (c *Cache) RunIsolated(p *mapreduce.Platform, job mapreduce.Job, faultsFP uint64) mapreduce.Result {
	r := c.Do(KeyFor(p, job, faultsFP), func() mapreduce.Result { return p.RunIsolated(job) })
	r.Job = job
	return r
}

// Observe mirrors every subsequent hit and miss into the given counters
// (either may be nil). The totals are deterministic even under the parallel
// pool: Do admits exactly one miss per distinct key, so the split
// depends only on the requested key multiset, never on interleaving. Attach
// before submitting work and detach (with nils) only when the pool is idle —
// the fields are read without synchronization on the lookup path.
func (c *Cache) Observe(hits, misses *obs.Counter) {
	c.obsHits, c.obsMisses = hits, misses
}

// Stats returns the lookup counters; hits+misses equals the total number of
// Do calls, and misses equals the number of distinct keys ever requested.
func (c *Cache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Len returns the number of memoized points.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}
