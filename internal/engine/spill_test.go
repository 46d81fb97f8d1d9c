package engine

import (
	"cmp"
	"slices"
	"strconv"
	"strings"
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
// bound, including bounds of 1: the same output bytes and the same
// counters, Spills and the wall times aside. Wordcount spills through its
// combiner; Sort, which has none, spills every pair.
func TestSpillEquivalenceProperty(t *testing.T) {
	text, _ := corpus.Generate(corpus.DefaultConfig(), 8*units.KB)
	for _, newJob := range []func(BlockStore, string, string, int, int, int) Config{NewWordcount, NewSort} {
		baselineStore := newOFS(t)
		if err := baselineStore.Create("in", text); err != nil {
			t.Fatal(err)
		}
		base := newJob(baselineStore, "in", "base", 3, 4, 3)
		baseCtr, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		baseOut := readAll(t, baselineStore, "base")

		f := func(boundRaw uint8) bool {
			store := newOFS(t)
			if err := store.Create("in", text); err != nil {
				return false
			}
			cfg := newJob(store, "in", "out", 3, 4, 3)
			cfg.SortBufferRecords = int(boundRaw%200) + 1
			ctr, err := Run(cfg)
			if err != nil {
				return false
			}
			return string(readAll(t, store, "out")) == string(baseOut) &&
				sansSpills(ctr) == sansSpills(baseCtr)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Errorf("%s: %v", base.Name, err)
		}
	}
}

// sansSpills returns c with Spills and the wall times zeroed: the counters
// every sort buffer and slot count must agree on.
func sansSpills(c Counters) Counters {
	c.Spills, c.MapWall, c.ShuffleWall, c.ReduceWall = 0, 0, 0, 0
	return c
}

// The map path under any input, sort buffer and slot count: a Wordcount's
// output is the single-threaded oracle's, and its counters are those of
// the unbounded single-slot run, Spills and the wall times aside. Blocks of
// a sixteenth of the input, and at least 16 bytes, give even a short input
// several map tasks, some with empty splits, while keeping a long line
// cheap: each task whose block starts inside a line reads on to its end.
func FuzzWordcountSpill(f *testing.F) {
	f.Add([]byte("a b a\nc a\n"), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, text []byte, boundRaw, slotsRaw uint8) {
		if len(text) == 0 {
			return // an empty input is a Run error
		}
		run := func(bound, slots int) ([]byte, Counters) {
			store, err := NewMemOFS(4, max(units.Bytes(len(text)/16), 16))
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Create("in", text); err != nil {
				t.Fatal(err)
			}
			cfg := NewWordcount(store, "in", "out", 3, slots, slots)
			cfg.SortBufferRecords = bound
			ctr, err := Run(cfg)
			if err != nil {
				t.Fatalf("bound %d slots %d: %v", bound, slots, err)
			}
			return readAll(t, store, "out"), ctr
		}
		bound, slots := int(boundRaw)%201, int(slotsRaw)%4+1
		_, wantCtr := run(0, 1)
		out, ctr := run(bound, slots)
		if sansSpills(ctr) != sansSpills(wantCtr) {
			t.Errorf("bound %d slots %d: counters %+v, want %+v", bound, slots, ctr, wantCtr)
		}
		got, err := ParseOutput(out)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceWordcount(text)
		if len(got) != len(want) {
			t.Fatalf("bound %d slots %d: %d words, want %d", bound, slots, len(got), len(want))
		}
		for w, n := range want {
			if got[w] != strconv.FormatInt(n, 10) {
				t.Errorf("bound %d slots %d: count[%q] = %s, want %d", bound, slots, w, got[w], n)
			}
		}
	})
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

// Unit coverage of the merge machinery. The map side groups but does not
// sort, so the merge is checked for what the reducers rely on: without a
// combiner it keeps every pair, each key's pairs together; with one, each
// key appears once, its values combined across segments.
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
	want := slices.Concat(segs...)
	if !slices.Equal(sortedPairs(merged), sortedPairs(want)) {
		t.Errorf("merge = %v, want the pairs %v", merged, want)
	}
	for i := 1; i < len(merged); i++ {
		if k := merged[i].k; k != merged[i-1].k && slices.ContainsFunc(merged[:i], func(p kv) bool { return p.k == k }) {
			t.Errorf("merge = %v: key %q not grouped", merged, k)
		}
	}
	combined, err := mergeSegments(segs, SumReducer{}, &grouper{})
	if err != nil {
		t.Fatal(err)
	}
	wantCombined := []kv{{"a", "1"}, {"b", "1"}, {"c", "3"}, {"e", "1"}}
	if !slices.Equal(sortedPairs(combined), wantCombined) {
		t.Errorf("combined merge = %v, want the pairs %v", combined, wantCombined)
	}
}

// sortedPairs returns a sorted copy of pairs, by key and then value: the
// multiset of pairs in a canonical order.
func sortedPairs(pairs []kv) []kv {
	out := slices.Clone(pairs)
	slices.SortFunc(out, func(a, b kv) int {
		return cmp.Or(strings.Compare(a.k, b.k), strings.Compare(a.v, b.v))
	})
	return out
}

// reduceFunc adapts a function to Reducer.
type reduceFunc func(key string, values []string, emit func(k, v string)) error

func (f reduceFunc) Reduce(key string, values []string, emit func(k, v string)) error {
	return f(key, values, emit)
}

// The reduce task is the one place the engine sorts: in whatever order the
// map tasks emitted the pairs, the reducer gets keys ascending and each
// key's values ascending, the tie-break of Hadoop's sort-merge step.
func TestReduceTaskSortsKeysAndValues(t *testing.T) {
	pairs := []kv{{"c", "1"}, {"a", "1"}, {"c", "2"}, {"b", "1"}, {"a", "0"}, {"e", "1"}, {"c", "0"}}
	want := []group{{"a", []string{"0", "1"}}, {"b", []string{"1"}}, {"c", []string{"0", "1", "2"}}, {"e", []string{"1"}}}
	var g grouper
	for shift := range pairs {
		for _, reverse := range []bool{false, true} {
			order := slices.Concat(pairs[shift:], pairs[:shift])
			if reverse {
				slices.Reverse(order)
			}
			var got []group
			record := reduceFunc(func(k string, values []string, emit func(k, v string)) error {
				got = append(got, group{k, slices.Clone(values)})
				emit(k, strings.Join(values, ","))
				return nil
			})
			if _, err := runReduceTask(Config{Name: "order", Reducer: record}, order, &g); err != nil {
				t.Fatal(err)
			}
			if !equalGroups(got, want) {
				t.Errorf("pairs %v: reducer got %v, want %v", order, got, want)
			}
		}
	}
}

func TestSpillBufferDrainEmpty(t *testing.T) {
	sb := spillBuffer{bound: 4, combiner: SumReducer{}, g: &grouper{}}
	out, err := sb.drain()
	if err != nil || len(out) != 0 {
		t.Errorf("empty drain = %v, %v", out, err)
	}
}
