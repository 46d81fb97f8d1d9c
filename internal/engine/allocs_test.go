package engine

import (
	"testing"

	"hybridmr/internal/corpus"
	"hybridmr/internal/units"
)

// perTaskAllocs is the allocation allowance per map task of a Wordcount on
// top of the one string per emitted key that Mapper's emit signature
// forces. It covers the split read, the spill segment, the partitions, and
// the growth of the worker's storage and of the job's own buffers, spread
// over the tasks: 1264 allocations over 65 tasks were measured (19.4 a
// task), and 21 leaves under 10% headroom.
const perTaskAllocs = 21

// The allocation budget of a steady-state Wordcount: a per-group or
// per-line allocation, which costs thousands over this input, fails it.
// One map and one reduce slot keep the count deterministic.
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
	budget := ctr.MapOutputRecords + int64(ctr.MapTasks*perTaskAllocs)
	if int64(allocs) > budget {
		t.Errorf("Wordcount: %.0f allocs, budget %d (%d map output records + %d tasks × %d)",
			allocs, budget, ctr.MapOutputRecords, ctr.MapTasks, perTaskAllocs)
	}
}
