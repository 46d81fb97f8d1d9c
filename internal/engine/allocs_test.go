package engine

import (
	"testing"

	"hybridmr/internal/corpus"
	"hybridmr/internal/units"
)

// perTaskAllocs is the allocation allowance per map task of a Wordcount on
// top of the one copy per distinct key per map task that the grouper makes
// of the keys emitted as bytes. It covers the split read, the arena string
// per flush, the combiner's multi-digit counts, the spill segment, the
// partitions, and the growth of the worker's storage and of the job's own
// buffers, spread over the tasks: 1217 allocations over 65 tasks were
// measured (18.7 a task), and 20 leaves under 10% headroom.
const perTaskAllocs = 20

// The allocation budget of a steady-state Wordcount: a per-record,
// per-group or per-line allocation, which costs thousands over this input,
// fails it. One map and one reduce slot keep the count deterministic.
func TestWordcountAllocBudget(t *testing.T) {
	ccfg := corpus.DefaultConfig()
	ccfg.Seed = 2009
	text, err := corpus.Generate(ccfg, 256*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	store := newOFS(t)
	if err := store.Create("in", text); err != nil {
		t.Fatal(err)
	}
	cfg := NewWordcount(store, "in", "", 4, 1, 1)
	var ctr Counters
	allocs := testing.AllocsPerRun(5, func() {
		if ctr, err = Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	keys := distinctKeysPerTask(t, store, "in")
	budget := keys + int64(ctr.MapTasks*perTaskAllocs)
	if int64(allocs) > budget {
		t.Errorf("Wordcount: %.0f allocs, budget %d (%d distinct keys summed over map tasks + %d tasks × %d)",
			allocs, budget, keys, ctr.MapTasks, perTaskAllocs)
	}
}

// distinctKeysPerTask sums, over the map tasks of a Wordcount of the
// dataset, the number of distinct words in each task's split: the keys the
// map side copies.
func distinctKeysPerTask(t *testing.T, store BlockStore, name string) int64 {
	t.Helper()
	ds, err := store.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	var split []byte
	starts := splitStarts(ds)
	for task := range ds.NumBlocks() {
		if split, err = readSplit(ds, starts[task], starts[task+1], split); err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool)
		for start, end := nextField(split, 0); start < end; start, end = nextField(split, end) {
			seen[string(split[start:end])] = true
		}
		total += int64(len(seen))
	}
	return total
}
