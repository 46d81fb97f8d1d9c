package figures

import (
	"hash/maphash"
	"sync"
	"time"

	"hybridmr/internal/core"
	"hybridmr/internal/mapreduce"
	"hybridmr/internal/workload"
)

// This file is the shared-prefix layer of the replay experiments: the work
// every replay of a report repeats — generating the trace, assembling the
// hybrid and the two baseline platforms — is computed once and memoized, and
// the four concurrent replays of RunTrace and Fig10 and the five or six of
// RunResilienceOpts share the results.
// Everything handed out is read-only after construction (the simulators only
// read jobs and platforms), which is what already made the replays safe to
// fan out on the sweep pool; the memo just stops rebuilding the inputs.

// ReplaySetup is the shared prefix of one trace experiment: the generated
// trace plus the architectures it replays on. Treat every field as
// immutable — the same setup is shared by concurrent replays and by later
// runs with the same calibration and workload config.
type ReplaySetup struct {
	Jobs []workload.Job
	*ArchSet
}

// ArchSet is the architecture bundle for one calibration: the paper's hybrid
// and the two traditional 24-machine baselines. Read-only once built.
type ArchSet struct {
	Hybrid  *core.Hybrid
	THadoop *mapreduce.Platform
	RHadoop *mapreduce.Platform
}

// NewArchSet assembles the bundle without memoization.
func NewArchSet(cal mapreduce.Calibration) (*ArchSet, error) {
	hybrid, err := core.NewHybrid(cal)
	if err != nil {
		return nil, err
	}
	th, err := mapreduce.NewTHadoop(cal)
	if err != nil {
		return nil, err
	}
	rh, err := mapreduce.NewRHadoop(cal)
	if err != nil {
		return nil, err
	}
	return &ArchSet{Hybrid: hybrid, THadoop: th, RHadoop: rh}, nil
}

var (
	setupMu sync.Mutex
	arches  map[mapreduce.Calibration]*ArchSet
	traces  map[uint64][]workload.Job
)

// memoize returns (*m)[key], building and storing it on the first request.
// build runs outside the lock; when two builders race, the first stored
// value wins and both callers share it. Errors are not memoized.
func memoize[K comparable, V any](m *map[K]V, key K, build func() (V, error)) (V, error) {
	setupMu.Lock()
	v, ok := (*m)[key]
	setupMu.Unlock()
	if ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return v, err
	}
	setupMu.Lock()
	defer setupMu.Unlock()
	if prev, ok := (*m)[key]; ok {
		return prev, nil
	}
	if *m == nil {
		*m = make(map[K]V)
	}
	(*m)[key] = v
	return v, nil
}

// SharedArches returns the memoized architecture bundle for the calibration,
// keyed by the calibration itself (its == equality covers every field).
// Errors are not memoized — an invalid calibration fails every time.
func SharedArches(cal mapreduce.Calibration) (*ArchSet, error) {
	return memoize(&arches, cal, func() (*ArchSet, error) { return NewArchSet(cal) })
}

// sharedTrace returns the memoized generated trace for the workload config,
// keyed by configFP. The slice is shared — callers must not mutate it.
func sharedTrace(cfg workload.Config) ([]workload.Job, error) {
	return memoize(&traces, configFP(cfg), func() ([]workload.Job, error) { return workload.Generate(cfg) })
}

// SharedSetup returns the memoized shared prefix for (cal, cfg): trace and
// architectures computed once, reused by every later report with the same
// inputs. Generation is deterministic per config, so sharing cannot change
// any replay's output — only skip rebuilding its inputs.
func SharedSetup(cal mapreduce.Calibration, cfg workload.Config) (*ReplaySetup, error) {
	jobs, err := sharedTrace(cfg)
	if err != nil {
		return nil, err
	}
	a, err := SharedArches(cal)
	if err != nil {
		return nil, err
	}
	return &ReplaySetup{Jobs: jobs, ArchSet: a}, nil
}

// configScalars is everything of a workload.Config except its two slices,
// whose lengths stand in for them here and whose elements configFP hashes
// one by one. configFP fills it positionally, so a field added here without
// a value there does not compile.
type configScalars struct {
	jobs, bands, appMix                         int
	seed                                        int64
	duration, burstGap                          time.Duration
	shrink, unknownRatioFraction, burstFraction float64
}

// configSeed seeds configFP; the trace memo lives only in this process.
var configSeed = maphash.MakeSeed()

// configFP hashes every workload.Config field, including each band and each
// application weight (maphash hashes a Band or AppWeight by ==, so every
// field of theirs, the whole apps.Profile included, is covered), so two
// configs collide only if they generate the identical trace.
func configFP(cfg workload.Config) uint64 {
	var h maphash.Hash
	h.SetSeed(configSeed)
	maphash.WriteComparable(&h, configScalars{
		cfg.Jobs, len(cfg.Bands), len(cfg.AppMix), cfg.Seed, cfg.Duration, cfg.BurstGap,
		cfg.Shrink, cfg.UnknownRatioFraction, cfg.BurstFraction,
	})
	for _, b := range cfg.Bands {
		maphash.WriteComparable(&h, b)
	}
	for _, aw := range cfg.AppMix {
		maphash.WriteComparable(&h, aw)
	}
	return h.Sum64()
}
