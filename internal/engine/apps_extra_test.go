package engine

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"hybridmr/internal/units"
)

// Sort produces every input token exactly once, in order.
func TestSortJob(t *testing.T) {
	text := []byte("banana apple\ncherry apple\nbanana date\n")
	store := newOFS(t)
	if err := store.Create("in", text); err != nil {
		t.Fatal(err)
	}
	ctr, err := Run(NewSort(store, "in", "out", 3, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if ctr.OutputRecords != 6 {
		t.Errorf("output records = %d, want 6 (duplicates preserved)", ctr.OutputRecords)
	}
	ds, _ := store.Open("out")
	buf := make([]byte, ds.Size())
	if _, err := readFull(ds, buf, 0); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, line := range strings.Split(strings.TrimRight(string(buf), "\n"), "\n") {
		k, _, _ := strings.Cut(line, "\t")
		keys = append(keys, k)
	}
	want := []string{"apple", "apple", "banana", "banana", "cherry", "date"}
	if len(keys) != len(want) {
		t.Fatalf("keys = %v", keys)
	}
	if !sort.StringsAreSorted(keys) {
		t.Errorf("output not sorted: %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Errorf("key[%d] = %q, want %q", i, keys[i], want[i])
		}
	}
	// Sort's shuffle carries every token: S/I near 1 for ASCII tokens.
	if r := float64(ctr.ShuffleInputRatio()); r < 0.5 || r > 1.5 {
		t.Errorf("sort S/I = %.2f, want ≈1", r)
	}
}

func TestDFSIOReadRoundTrip(t *testing.T) {
	store := newOFS(t)
	w, err := DFSIOWrite(store, "io", 6, 32*units.KB, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := DFSIORead(store, "io", 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Files != w.Files {
		t.Errorf("read %d files, wrote %d", r.Files, w.Files)
	}
	if r.TotalBytes != w.TotalBytes {
		t.Errorf("read %v, wrote %v", r.TotalBytes, w.TotalBytes)
	}
	if r.Throughput <= 0 {
		t.Error("non-positive read throughput")
	}
}

func TestDFSIOReadErrors(t *testing.T) {
	store := newOFS(t)
	if _, err := DFSIORead(store, "nope", 2); err == nil {
		t.Error("missing prefix accepted")
	}
	if _, err := DFSIORead(store, "x", 0); err == nil {
		t.Error("0 slots accepted")
	}
}

func TestTopKReducer(t *testing.T) {
	text := bytes.Repeat([]byte("common word\n"), 50)
	text = append(text, []byte("rare token\n")...)
	store := newOFS(t)
	if err := store.Create("in", text); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Name:        "topk",
		Store:       store,
		Input:       "in",
		Output:      "out",
		Mapper:      WordcountMapper{},
		Reducer:     TopKReducer{MinCount: 10},
		Combiner:    SumReducer{},
		Reducers:    2,
		MapSlots:    4,
		ReduceSlots: 2,
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	ds, _ := store.Open("out")
	buf := make([]byte, ds.Size())
	if _, err := readFull(ds, buf, 0); err != nil {
		t.Fatal(err)
	}
	out, err := ParseOutput(buf)
	if err != nil {
		t.Fatal(err)
	}
	if out["common"] != "50" || out["word"] != "50" {
		t.Errorf("frequent words missing: %v", out)
	}
	if _, ok := out["rare"]; ok {
		t.Error("rare word not filtered")
	}
	if err := (TopKReducer{MinCount: 1}).Reduce("k", []string{"zzz"}, func(string, string) {}); err == nil {
		t.Error("bad count accepted")
	}
}

// Identity reducer preserves values verbatim.
func TestIdentityReducer(t *testing.T) {
	var got []string
	err := IdentityReducer{}.Reduce("k", []string{"a", "b", "a"}, func(k, v string) {
		got = append(got, k+"="+v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "k=a" || got[1] != "k=b" || got[2] != "k=a" {
		t.Errorf("identity output = %v", got)
	}
}

// pairLineMapper emits each "key value" line as one (key, value) pair.
type pairLineMapper struct{}

func (pairLineMapper) MapLine(line []byte, emit func(k, v []byte)) error {
	k, v, _ := bytes.Cut(line, []byte{' '})
	emit(k, v)
	return nil
}

// An identity job's output is in (key, value) order: the final output sort
// keeps each key's values in the order its reducer emitted them.
func TestIdentityJobKeepsValueOrder(t *testing.T) {
	var in bytes.Buffer
	var want []string
	for i := 0; i < 400; i++ {
		k, v := fmt.Sprintf("k%d", (i*5)%7), fmt.Sprintf("%04d", 399-i)
		fmt.Fprintf(&in, "%s %s\n", k, v)
		want = append(want, k+"\t"+v)
	}
	sort.Strings(want)
	store := newOFS(t)
	if err := store.Create("in", in.Bytes()); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Name: "identity", Store: store, Input: "in", Output: "out",
		Mapper: pairLineMapper{}, Reducer: IdentityReducer{},
		Reducers: 3, MapSlots: 2, ReduceSlots: 2,
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSuffix(string(readAll(t, store, "out")), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d output lines, want %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d output lines out of (key, value) order", bad, len(want))
	}
}
