package engine

import (
	"slices"
	"strconv"
	"testing"
	"testing/quick"

	"hybridmr/internal/corpus"
	"hybridmr/internal/units"
)

// A bounded sort buffer spills but never changes the answer.
func TestSpillCorrectness(t *testing.T) {
	text, err := corpus.Generate(corpus.DefaultConfig(), 64*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceWordcount(text)
	store := newOFS(t)
	if err := store.Create("in", text); err != nil {
		t.Fatal(err)
	}
	cfg := NewWordcount(store, "in", "out", 4, 6, 4)
	cfg.SortBufferRecords = 64 // tiny: every task spills many times
	ctr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ctr.Spills == 0 {
		t.Fatal("tiny sort buffer never spilled")
	}
	ds, _ := store.Open("out")
	buf := make([]byte, ds.Size())
	if _, err := readFull(ds, buf, 0); err != nil {
		t.Fatal(err)
	}
	got, err := ParseOutput(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d words, want %d", len(got), len(want))
	}
	for w, n := range want {
		if got[w] != strconv.FormatInt(n, 10) {
			t.Errorf("count[%q] = %s, want %d", w, got[w], n)
		}
	}
}

// Spilling plus the per-segment combiner shrinks shuffle volume relative to
// spilling without one.
func TestSpillCombinerShrinksShuffle(t *testing.T) {
	text, _ := corpus.Generate(corpus.DefaultConfig(), 64*units.KB)
	run := func(withCombiner bool) Counters {
		store := newOFS(t)
		if err := store.Create("in", text); err != nil {
			t.Fatal(err)
		}
		cfg := NewWordcount(store, "in", "", 4, 4, 4)
		cfg.SortBufferRecords = 128
		if !withCombiner {
			cfg.Combiner = nil
		}
		ctr, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ctr
	}
	with, without := run(true), run(false)
	if with.ShuffleBytes >= without.ShuffleBytes {
		t.Errorf("combined spill shuffle %d not below raw %d", with.ShuffleBytes, without.ShuffleBytes)
	}
}

// Property: the spill path and the unbounded path agree for any buffer
// bound, including bounds of 1.
func TestSpillEquivalenceProperty(t *testing.T) {
	text, _ := corpus.Generate(corpus.DefaultConfig(), 8*units.KB)
	baselineStore := newOFS(t)
	if err := baselineStore.Create("in", text); err != nil {
		t.Fatal(err)
	}
	base := NewWordcount(baselineStore, "in", "base", 3, 4, 3)
	if _, err := Run(base); err != nil {
		t.Fatal(err)
	}
	baseOut := readAll(t, baselineStore, "base")

	f := func(boundRaw uint8) bool {
		store := newOFS(t)
		if err := store.Create("in", text); err != nil {
			return false
		}
		cfg := NewWordcount(store, "in", "out", 3, 4, 3)
		cfg.SortBufferRecords = int(boundRaw%200) + 1
		if _, err := Run(cfg); err != nil {
			return false
		}
		return string(readAll(t, store, "out")) == string(baseOut)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func readAll(t *testing.T, store BlockStore, name string) []byte {
	t.Helper()
	ds, err := store.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, ds.Size())
	if _, err := readFull(ds, buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestSpillValidation(t *testing.T) {
	store := newOFS(t)
	if err := store.Create("in", []byte("a b\n")); err != nil {
		t.Fatal(err)
	}
	cfg := NewWordcount(store, "in", "", 1, 1, 1)
	cfg.SortBufferRecords = -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative sort buffer accepted")
	}
}

// Unit coverage of the merge machinery.
func TestMergeSegments(t *testing.T) {
	segs := []segment{
		{{"a", "1"}, {"c", "1"}, {"e", "1"}},
		{{"b", "1"}, {"c", "2"}},
		{},
		{{"a", "0"}},
	}
	merged, err := mergeSegments(segs, nil, &grouper{})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 6 {
		t.Fatalf("merged %d pairs", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].k < merged[i-1].k {
			t.Fatalf("merge not sorted: %v", merged)
		}
	}
	if merged[0] != (kv{"a", "0"}) || merged[1] != (kv{"a", "1"}) {
		t.Errorf("value tie-break wrong: %v", merged[:2])
	}
	// With a combiner, equal keys from different segments collapse.
	combined, err := mergeSegments(segs, SumReducer{}, &grouper{})
	if err != nil {
		t.Fatal(err)
	}
	want := segment{{"a", "1"}, {"b", "1"}, {"c", "3"}, {"e", "1"}}
	if !slices.Equal(combined, want) {
		t.Errorf("combined merge = %v, want %v", combined, want)
	}
}

func TestSpillBufferDrainEmpty(t *testing.T) {
	sb := spillBuffer{bound: 4, combiner: SumReducer{}, g: &grouper{}}
	out, err := sb.drain()
	if err != nil || len(out) != 0 {
		t.Errorf("empty drain = %v, %v", out, err)
	}
}
