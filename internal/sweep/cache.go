package sweep

import (
	"math"
	"sync"
	"sync/atomic"

	"hybridmr/internal/apps"
	"hybridmr/internal/cluster"
	"hybridmr/internal/mapreduce"
	"hybridmr/internal/obs"
	"hybridmr/internal/units"
)

// Key identifies one isolated simulation point by content: the platform
// (name plus a fingerprint of its cluster spec and file system, so ablation
// variants never alias the Table I architectures), the application profile,
// the job's size and task-layout overrides, and the calibration hash.
// Job.ID and Job.Submit are deliberately excluded — RunIsolated ignores
// them, which is what lets "fig", "norm" and "sweep" probes of the same
// point share one simulation.
//
//simlint:exhaustive KeyFor,shard
type Key struct {
	Platform string
	Spec     uint64
	App      string
	AppFP    uint64
	Input    units.Bytes
	Reducers int
	MapTasks int
	Cal      uint64
	// Faults is the fault schedule's Fingerprint when the probe estimates a
	// point under a fault scenario (the failure-aware scheduler's degraded
	// ETAs); 0 — the clean sentinel — otherwise. It composes with Cal so a
	// faulted estimate can never alias a clean entry, even on a degraded
	// platform whose Spec and FS fingerprints happen to match a real one.
	Faults uint64
}

// KeyFor builds the content key of running job isolated on p under the
// fault scenario with Fingerprint faultsFP; 0 is the clean key.
//
//simlint:hotpath
func KeyFor(p *mapreduce.Platform, job mapreduce.Job, faultsFP uint64) Key {
	return Key{
		Platform: p.Name,
		Spec:     specFP(p.Spec, p.FS.Name()),
		App:      job.App.Name,
		AppFP:    profileFP(job.App),
		Input:    job.Input,
		Reducers: job.Reducers,
		MapTasks: job.MapTasks,
		Cal:      calHash(p.Cal),
		Faults:   faultsFP,
	}
}

// calHashEntry is one memoized Calibration fingerprint.
type calHashEntry struct {
	cal  mapreduce.Calibration
	hash uint64
}

// lastCalHash is a one-entry memo for calHash: probes within a replay (and
// across a whole report) almost always share one calibration, and a struct
// equality check is far cheaper than rehashing every field per probe.
var lastCalHash atomic.Pointer[calHashEntry]

// calHash returns c.Hash(), memoizing the most recent calibration seen.
//
//simlint:hotpath
func calHash(c mapreduce.Calibration) uint64 {
	if e := lastCalHash.Load(); e != nil && e.cal == c {
		return e.hash
	}
	h := c.Hash()
	// The memo entry is one allocation per calibration *change*, not per
	// probe; the steady state (one calibration per report) takes the
	// equality hit above and allocates nothing.
	lastCalHash.Store(&calHashEntry{cal: c, hash: h}) //simlint:allow hotalloc one alloc per calibration change, not per probe; the hit path above is alloc-free
	return h
}

// hashFP accumulates words into an allocation-free FNV-1a fingerprint
// (KeyFor runs on the cache's hot lookup path, once per simulation probe).
type hashFP uint64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func newFP() hashFP { return fnvOffset64 }

//simlint:hotpath
func (f hashFP) word(v uint64) hashFP {
	h := uint64(f)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return hashFP(h)
}

//simlint:hotpath
func (f hashFP) float(v float64) hashFP { return f.word(math.Float64bits(v)) }

//simlint:hotpath
func (f hashFP) str(s string) hashFP {
	f = f.word(uint64(len(s)))
	h := uint64(f)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return hashFP(h)
}

//simlint:hotpath
func (f hashFP) flag(b bool) hashFP {
	if b {
		return f.word(1)
	}
	return f.word(0)
}

// specFP fingerprints the cluster spec and file-system name, covering every
// field the cost model reads, so two platforms that share a name but differ
// in hardware (e.g. an ablation's no-RAM-disk variant) get distinct keys.
//
//simlint:hotpath
func specFP(s cluster.Spec, fsName string) uint64 {
	m := s.Machine
	return uint64(newFP().
		str(s.Name).
		str(fsName).
		word(uint64(s.Machines)).
		float(s.MapSlotFraction).
		str(m.Name).
		word(uint64(m.Cores)).
		float(m.CoreGHz).
		float(m.CPUFactor).
		word(uint64(m.RAM)).
		word(uint64(m.HeapShuffle)).
		word(uint64(m.HeapMap)).
		word(uint64(m.DiskCapacity)).
		float(float64(m.DiskBW)).
		float(float64(m.NICBW)).
		flag(m.RAMDisk).
		float(float64(m.RAMDiskBW)).
		float(m.PriceUSD))
}

// profileFP fingerprints the application profile's model parameters, so a
// re-tuned profile reusing a paper app's name cannot alias its results.
//
//simlint:hotpath
func profileFP(p apps.Profile) uint64 {
	return uint64(newFP().
		word(uint64(p.Class)).
		float(float64(p.ShuffleInputRatio)).
		float(float64(p.OutputShuffleRatio)).
		flag(p.MapReadsInput).
		float(float64(p.MapFSWriteRatio)).
		float(float64(p.MapRate)).
		float(float64(p.ReduceRate)))
}

// Cache memoizes isolated simulation results by Key. It is safe for
// concurrent use; concurrent requests for the same key run the simulation
// exactly once (the losers block until the winner's result is ready).
//
// The entries live in sharded RWMutex-guarded maps rather than the previous
// sync.Map: sync.Map.Load takes its key as an interface value, which boxed
// the ~100-byte Key onto the heap on every probe — the dominant allocation
// of the failure-aware ETA path. A typed map probes without boxing, the read
// lock keeps the hit path contention-free across the parallel replays, and
// sharding by a cheap Key hash keeps the rare insert bursts from serializing.
type Cache struct {
	shards [cacheShards]cacheShard
	hits   atomic.Uint64
	misses atomic.Uint64

	// obsHits/obsMisses mirror the counters into an observability registry
	// when attached (Observe); nil absorbs the updates.
	obsHits   *obs.Counter
	obsMisses *obs.Counter
}

// cacheShards is the shard count; a small power of two suffices — the pool
// runs at most a few dozen workers.
const cacheShards = 16

type cacheShard struct {
	mu sync.RWMutex
	m  map[Key]*entry
}

// shard selects k's shard by mixing the Key's precomputed fingerprints —
// cheap (no hashing of the strings, which the fingerprints already cover)
// and allocation-free.
//
//simlint:hotpath
func (c *Cache) shard(k Key) *cacheShard {
	h := k.Spec ^ k.AppFP
	h = h*fnvPrime64 ^ k.Cal
	h = h*fnvPrime64 ^ k.Faults
	h = h*fnvPrime64 ^ uint64(k.Input)
	h = h*fnvPrime64 ^ uint64(k.Reducers)<<32 ^ uint64(k.MapTasks)
	return &c.shards[h%cacheShards]
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
	sh := c.shard(k)
	sh.mu.RLock()
	e, ok := sh.m[k]
	sh.mu.RUnlock()
	if !ok {
		// First request for this key (or a race with one): the write-locked
		// re-check admits exactly one entry, so exactly one Do per key is a
		// miss — the same single-miss determinism contract LoadOrStore gave.
		sh.mu.Lock()
		e, ok = sh.m[k]
		if !ok {
			if sh.m == nil {
				sh.m = make(map[Key]*entry)
			}
			e = &entry{}
			sh.m[k] = e
		}
		sh.mu.Unlock()
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
// pool: LoadOrStore admits exactly one miss per distinct key, so the split
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
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}
