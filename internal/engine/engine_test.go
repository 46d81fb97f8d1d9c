package engine

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"maps"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"hybridmr/internal/corpus"
	"hybridmr/internal/units"
)

func newHDFS(t testing.TB) *MemHDFS {
	t.Helper()
	s, err := NewMemHDFS(12, 4*units.KB, 2, 64*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newOFS(t testing.TB) *MemOFS {
	t.Helper()
	s, err := NewMemOFS(32, 4*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// referenceWordcount is the single-threaded oracle.
func referenceWordcount(data []byte) map[string]int64 {
	counts := make(map[string]int64)
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		for _, w := range bytes.Fields(line) {
			counts[string(w)]++
		}
	}
	return counts
}

func runWordcount(t *testing.T, store BlockStore, data []byte, reducers, slots int) map[string]string {
	t.Helper()
	if err := store.Create("in", data); err != nil {
		t.Fatal(err)
	}
	cfg := NewWordcount(store, "in", "out", reducers, slots, slots)
	ctr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ctr.InputBytes != units.Bytes(len(data)) {
		t.Errorf("InputBytes = %d, want %d", ctr.InputBytes, len(data))
	}
	ds, err := store.Open("out")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, ds.Size())
	if _, err := readFull(ds, buf, 0); err != nil {
		t.Fatal(err)
	}
	out, err := ParseOutput(buf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Wordcount on the engine matches the single-threaded oracle exactly, on
// both store kinds and across worker counts.
func TestWordcountCorrectness(t *testing.T) {
	text, err := corpus.Generate(corpus.DefaultConfig(), 64*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceWordcount(text)
	for _, tc := range []struct {
		name     string
		store    BlockStore
		reducers int
		slots    int
	}{
		{"hdfs-1worker", newHDFS(t), 3, 1},
		{"hdfs-8workers", newHDFS(t), 5, 8},
		{"ofs-4workers", newOFS(t), 4, 4},
		{"ofs-1reducer", newOFS(t), 1, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runWordcount(t, tc.store, text, tc.reducers, tc.slots)
			if len(got) != len(want) {
				t.Fatalf("%d distinct words, want %d", len(got), len(want))
			}
			for w, n := range want {
				if got[w] != strconv.FormatInt(n, 10) {
					t.Errorf("count[%q] = %s, want %d", w, got[w], n)
				}
			}
		})
	}
}

// Identical jobs on the two store kinds produce identical output.
func TestStoreEquivalence(t *testing.T) {
	text, err := corpus.Generate(corpus.DefaultConfig(), 32*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	a := runWordcount(t, newHDFS(t), text, 4, 6)
	b := runWordcount(t, newOFS(t), text, 4, 6)
	if len(a) != len(b) {
		t.Fatalf("outputs differ in size: %d vs %d", len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			t.Errorf("key %q: %s vs %s", k, v, b[k])
		}
	}
}

// The combiner changes record counts but never results.
func TestCombinerEquivalence(t *testing.T) {
	text, _ := corpus.Generate(corpus.DefaultConfig(), 32*units.KB)
	withStore, withoutStore := newOFS(t), newOFS(t)
	if err := withStore.Create("in", text); err != nil {
		t.Fatal(err)
	}
	if err := withoutStore.Create("in", text); err != nil {
		t.Fatal(err)
	}
	with := NewWordcount(withStore, "in", "out", 4, 4, 4)
	without := with
	without.Store = withoutStore
	without.Combiner = nil
	cw, err := Run(with)
	if err != nil {
		t.Fatal(err)
	}
	co, err := Run(without)
	if err != nil {
		t.Fatal(err)
	}
	if cw.ShuffleBytes >= co.ShuffleBytes {
		t.Errorf("combiner did not shrink shuffle: %d vs %d", cw.ShuffleBytes, co.ShuffleBytes)
	}
	if cw.OutputRecords != co.OutputRecords {
		t.Errorf("output records differ: %d vs %d", cw.OutputRecords, co.OutputRecords)
	}
	bufOf := func(s BlockStore) []byte {
		ds, err := s.Open("out")
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, ds.Size())
		if _, err := readFull(ds, b, 0); err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(bufOf(withStore), bufOf(withoutStore)) {
		t.Error("combiner changed the job output")
	}
}

// Property: line-aligned splits process every line exactly once, for any
// block size and content — the TextInputFormat contract.
func TestSplitAlignmentProperty(t *testing.T) {
	f := func(raw []byte, blockRaw uint8) bool {
		block := units.Bytes(blockRaw%64) + 1
		// Normalize: the engine treats input as newline-separated text.
		text := bytes.ReplaceAll(raw, []byte{0}, []byte{'x'})
		store, err := NewMemOFS(4, block)
		if err != nil {
			return false
		}
		if len(text) == 0 {
			return true
		}
		if err := store.Create("in", text); err != nil {
			return false
		}
		cfg := Config{
			Name:     "lines",
			Store:    store,
			Input:    "in",
			Mapper:   countLinesMapper{},
			Reducer:  SumReducer{},
			Reducers: 2, MapSlots: 3, ReduceSlots: 2,
		}
		ctr, err := Run(cfg)
		if err != nil {
			return false
		}
		want := int64(0)
		for _, line := range bytes.Split(text, []byte{'\n'}) {
			if len(line) > 0 {
				want++
			}
		}
		return ctr.InputRecords == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// countingStore opens datasets that add the bytes every read returns to
// *read.
type countingStore struct {
	BlockStore
	read *int64
}

func (s countingStore) Open(name string) (Dataset, error) {
	ds, err := s.BlockStore.Open(name)
	return countingDataset{ds, s.read}, err
}

type countingDataset struct {
	Dataset
	read *int64
}

func (d countingDataset) ReadAt(p []byte, off int64) (int, error) {
	n, err := d.Dataset.ReadAt(p, off)
	*d.read += int64(n)
	return n, err
}

// A line far longer than a block spans many map tasks that own no line
// start. The job finds each split boundary once, so it reads O(input)
// bytes: one 64 KB line over 64-byte blocks (1,024 map tasks) reads about
// twice the input, where probing from every block start to the line's end
// read about size²/(2·block) — 32 MB.
func TestLongLineReadsLinearBytes(t *testing.T) {
	const size = 64 << 10
	text := append(bytes.Repeat([]byte("ab "), size/3), '\n')
	ofs, err := NewMemOFS(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := ofs.Create("in", text); err != nil {
		t.Fatal(err)
	}
	var read int64
	ctr, err := Run(NewWordcount(countingStore{ofs, &read}, "in", "out", 2, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if ctr.MapTasks != 1024 || ctr.InputRecords != 1 {
		t.Fatalf("%d map tasks, %d input records; want 1024 and 1", ctr.MapTasks, ctr.InputRecords)
	}
	if read > 3*int64(len(text)) {
		t.Errorf("read %d bytes of a %d-byte input; want at most 3× the input", read, len(text))
	}
}

type countLinesMapper struct{}

func (countLinesMapper) MapLine(line []byte, emit func(k, v []byte)) error {
	emit([]byte("lines"), one)
	return nil
}

func TestGrep(t *testing.T) {
	text := []byte("alpha beta\ngamma delta\nalpha gamma\nnothing here\n")
	store := newOFS(t)
	if err := store.Create("in", text); err != nil {
		t.Fatal(err)
	}
	cfg, err := NewGrep(store, "in", "out", "alpha", 2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ctr.MapOutputRecords != 2 {
		t.Errorf("matches = %d, want 2", ctr.MapOutputRecords)
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
	if out["alpha"] != "2" {
		t.Errorf("grep output = %v", out)
	}

	// A literal pattern is found with bytes.Index, others by the regexp;
	// either way MapLine emits what the regexp's Find returns: the same
	// sub-slice of the line, or nothing, for a nil line too.
	lines := [][]byte{nil}
	for _, s := range []string{"", "alpha beta", "w0000 w00001", "xw00007y", "W0000 w0000",
		"a.b axb", "a\\.b", "w0000", "héllo wörld", "wörld\xffwörld", "bad\xff w0\xff0000", "no match"} {
		lines = append(lines, []byte(s))
	}
	for _, tc := range []struct {
		pattern string
		literal bool
	}{
		{"w0000", true},
		{"wörld", true},
		{`a\.b`, true},
		{"", true},
		{"w00[0-9]+", false},
		{"(?i)W0000", false},
		{"^w0000$", false},
		{`\Aw0000\z`, false},
		{"^w0000", false},
	} {
		m, err := NewGrepMapper(tc.pattern)
		if err != nil {
			t.Fatal(err)
		}
		if (m.re == nil) != tc.literal {
			t.Errorf("%q: literal path %v, want %v", tc.pattern, m.re == nil, tc.literal)
		}
		re := regexp.MustCompile(tc.pattern)
		for _, line := range lines {
			want := re.Find(line)
			var got [][]byte
			if err := m.MapLine(line, func(k, v []byte) { got = append(got, k, v) }); err != nil {
				t.Fatal(err)
			}
			if want == nil {
				if got != nil {
					t.Errorf("%q on %q: emitted %q, want nothing", tc.pattern, line, got)
				}
				continue
			}
			if len(got) != 2 || !sameSlice(got[0], want) || string(got[1]) != "1" {
				t.Errorf("%q on %q: emitted %q, want %q, \"1\"", tc.pattern, line, got, want)
			}
		}
	}
}

// sameSlice reports whether a and b are the same slice of the same array.
func sameSlice(a, b []byte) bool {
	return len(a) == len(b) && cap(a) == cap(b) && unsafe.SliceData(a) == unsafe.SliceData(b)
}

func TestGrepBadPattern(t *testing.T) {
	if _, err := NewGrep(newOFS(t), "in", "out", "([", 1, 1, 1); err == nil {
		t.Error("bad pattern accepted")
	}
}

// Grep's shuffle/input ratio is far below Wordcount's — the measured basis
// for the paper's ratio bands.
func TestMeasuredShuffleRatios(t *testing.T) {
	text, _ := corpus.Generate(corpus.DefaultConfig(), 128*units.KB)
	wcStore := newOFS(t)
	if err := wcStore.Create("in", text); err != nil {
		t.Fatal(err)
	}
	wcCfg := NewWordcount(wcStore, "in", "", 4, 4, 4)
	wcCfg.Combiner = nil // raw shuffle volume, as the paper measures it
	wc, err := Run(wcCfg)
	if err != nil {
		t.Fatal(err)
	}
	grStore := newOFS(t)
	if err := grStore.Create("in", text); err != nil {
		t.Fatal(err)
	}
	grCfg, err := NewGrep(grStore, "in", "", "w0000", 4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := Run(grCfg)
	if err != nil {
		t.Fatal(err)
	}
	if wc.ShuffleInputRatio() <= 2*gr.ShuffleInputRatio() {
		t.Errorf("wordcount S/I %.3f not well above grep S/I %.3f",
			float64(wc.ShuffleInputRatio()), float64(gr.ShuffleInputRatio()))
	}
}

// Property: HashPartitioner is FNV-1a (hash/fnv's New32a) modulo n, so a
// key's partition is the one Hadoop-style hash partitioning gives it.
func TestHashPartitionerIsFNV1a(t *testing.T) {
	f := func(key string, n uint8) bool {
		parts := int(n) + 1
		h := fnv.New32a()
		h.Write([]byte(key))
		return HashPartitioner(key, parts) == int(h.Sum32()%uint32(parts))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestRunValidation(t *testing.T) {
	store := newOFS(t)
	good := NewWordcount(store, "in", "", 1, 1, 1)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"no store", func(c *Config) { c.Store = nil }},
		{"no input", func(c *Config) { c.Input = "" }},
		{"no mapper", func(c *Config) { c.Mapper = nil }},
		{"no reducer", func(c *Config) { c.Reducer = nil }},
		{"no reducers", func(c *Config) { c.Reducers = 0 }},
		{"no slots", func(c *Config) { c.MapSlots = 0 }},
	}
	for _, tc := range cases {
		cfg := good
		tc.mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run succeeded", tc.name)
		}
	}
	// Missing input dataset.
	if _, err := Run(good); err == nil {
		t.Error("missing dataset accepted")
	}
}

func TestMapperErrorPropagates(t *testing.T) {
	store := newOFS(t)
	if err := store.Create("in", []byte("boom\n")); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Name: "boom", Store: store, Input: "in",
		Mapper:   failingMapper{},
		Reducer:  SumReducer{},
		Reducers: 1, MapSlots: 2, ReduceSlots: 1,
	}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("mapper error not propagated: %v", err)
	}
}

type failingMapper struct{}

func (failingMapper) MapLine([]byte, func(k, v []byte)) error {
	return fmt.Errorf("boom mapper")
}

func TestSumReducerBadValue(t *testing.T) {
	err := SumReducer{}.Reduce("k", []string{"not-a-number"}, func(string, string) {})
	if err == nil {
		t.Error("bad value accepted")
	}
}

func TestDFSIOWriteEngine(t *testing.T) {
	store := newOFS(t)
	res, err := DFSIOWrite(store, "io", 8, 16*units.KB, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBytes != 128*units.KB {
		t.Errorf("TotalBytes = %v", res.TotalBytes)
	}
	if res.Throughput <= 0 {
		t.Error("non-positive throughput")
	}
	if got := len(store.List()); got != 8 {
		t.Errorf("%d files stored, want 8", got)
	}
	// Capacity errors surface (HDFS-like store with a small cap).
	small, err := NewMemHDFS(2, 4*units.KB, 2, 32*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	_, err = DFSIOWrite(small, "io", 8, 16*units.KB, 2)
	if err == nil || !ErrCapacity(err) {
		t.Errorf("capacity error = %v", err)
	}
	// Parameter validation.
	if _, err := DFSIOWrite(store, "x", 0, units.KB, 1); err == nil {
		t.Error("0 files accepted")
	}
	if _, err := DFSIOWrite(store, "x", 1, 0, 1); err == nil {
		t.Error("0 size accepted")
	}
	if _, err := DFSIOWrite(store, "x", 1, units.KB, 0); err == nil {
		t.Error("0 slots accepted")
	}
}

func TestCountersShape(t *testing.T) {
	text, _ := corpus.Generate(corpus.DefaultConfig(), 32*units.KB)
	store := newOFS(t)
	if err := store.Create("in", text); err != nil {
		t.Fatal(err)
	}
	ctr, err := Run(NewWordcount(store, "in", "", 4, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if ctr.MapTasks != store.mustOpen(t, "in").NumBlocks() {
		t.Errorf("MapTasks = %d", ctr.MapTasks)
	}
	if ctr.InputRecords == 0 || ctr.MapOutputRecords == 0 || ctr.OutputRecords == 0 {
		t.Errorf("zero counters: %+v", ctr)
	}
	if ctr.OutputBytes == 0 {
		t.Error("zero output bytes")
	}
	if ctr.ShuffleInputRatio() <= 0 {
		t.Error("non-positive shuffle/input ratio")
	}
	if (Counters{}).ShuffleInputRatio() != 0 {
		t.Error("empty counters ratio should be 0")
	}
}

func (s *MemOFS) mustOpen(t *testing.T, name string) Dataset {
	t.Helper()
	d, err := s.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestParseOutputErrors(t *testing.T) {
	if _, err := ParseOutput([]byte("no-tab-here\n")); err == nil {
		t.Error("malformed line accepted")
	}
	m, err := ParseOutput([]byte("a\t1\nb\t2\n"))
	if err != nil || len(m) != 2 || m["a"] != "1" {
		t.Errorf("ParseOutput = %v, %v", m, err)
	}
	if _, err := ParseOutput([]byte("a\t1\nb\t2\na\t3\n")); err == nil || !strings.Contains(err.Error(), `"a"`) {
		t.Errorf("duplicate key: %v, want an error naming \"a\"", err)
	}
}

// ParseOutput never panics, and what it accepts round-trips: every
// non-empty line is one key of the map, and writing the map back out as
// sorted "key\tvalue" lines parses to the same map.
func FuzzParseOutput(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseOutput(data)
		if err != nil {
			return
		}
		lines := 0
		for _, line := range strings.Split(string(data), "\n") {
			if line != "" {
				lines++
				k, v, _ := strings.Cut(line, "\t")
				if got, ok := m[k]; !ok || got != v {
					t.Fatalf("line %q: map has %q, %v", line, got, ok)
				}
			}
		}
		if len(m) != lines {
			t.Fatalf("%d keys from %d lines", len(m), lines)
		}
		var out strings.Builder
		for _, k := range slices.Sorted(maps.Keys(m)) {
			out.WriteString(k + "\t" + m[k] + "\n")
		}
		again, err := ParseOutput([]byte(out.String()))
		if err != nil || !maps.Equal(again, m) {
			t.Fatalf("round trip: %v, %v; want %v", again, err, m)
		}
	})
}

// Many engine jobs running concurrently against one shared store produce
// the same answers as sequential runs — the store-sharing claim of the
// hybrid architecture, under the race detector in CI.
func TestConcurrentJobsSharedStore(t *testing.T) {
	text, err := corpus.Generate(corpus.DefaultConfig(), 64*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	store := newOFS(t)
	if err := store.Create("shared", text); err != nil {
		t.Fatal(err)
	}
	want := referenceWordcount(text)
	const jobs = 8
	results := make([]map[string]string, jobs)
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := NewWordcount(store, "shared", fmt.Sprintf("out-%d", i), 3, 4, 2)
			if _, err := Run(cfg); err != nil {
				errs[i] = err
				return
			}
			ds, err := store.Open(fmt.Sprintf("out-%d", i))
			if err != nil {
				errs[i] = err
				return
			}
			buf := make([]byte, ds.Size())
			if _, err := readFull(ds, buf, 0); err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = ParseOutput(buf)
		}()
	}
	wg.Wait()
	for i := 0; i < jobs; i++ {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if len(results[i]) != len(want) {
			t.Fatalf("job %d: %d words, want %d", i, len(results[i]), len(want))
		}
		for w, n := range want {
			if results[i][w] != strconv.FormatInt(n, 10) {
				t.Fatalf("job %d: count[%q] = %s, want %d", i, w, results[i][w], n)
			}
		}
	}
}

// groupByKey is the sort-merge grouping the grouper replaced, kept as the
// reference it must match: sort every pair by (key, value), then cut runs.
func groupByKey(pairs []kv) []group {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].k != pairs[j].k {
			return pairs[i].k < pairs[j].k
		}
		return pairs[i].v < pairs[j].v
	})
	var out []group
	for i := 0; i < len(pairs); {
		j := i
		for j < len(pairs) && pairs[j].k == pairs[i].k {
			j++
		}
		vals := make([]string, 0, j-i)
		for _, p := range pairs[i:j] {
			vals = append(vals, p.v)
		}
		out = append(out, group{key: pairs[i].k, values: vals})
		i = j
	}
	return out
}

func equalGroups(a, b []group) bool {
	return slices.EqualFunc(a, b, func(x, y group) bool {
		return x.key == y.key && slices.Equal(x.values, y.values)
	})
}

// groupsMatchReference feeds pairs to a grouper in emit order and checks
// its sorted groups against the sort-merge reference.
func groupsMatchReference(g *grouper, pairs []kv) bool {
	for _, p := range pairs {
		if add(g, p.k, p.v) != nil {
			return false
		}
	}
	got := g.sorted()
	ok := g.len() == len(pairs) && equalGroups(got, groupByKey(slices.Clone(pairs)))
	g.reset()
	return ok
}

// Property: hash grouping yields exactly the sort-merge step's groups —
// keys ascending, each key's values ascending — for random pairs with
// duplicate keys, the empty key, repeated values and values emitted in
// descending order, including on a grouper reused after reset (the spill
// path).
func TestGrouperMatchesSortReference(t *testing.T) {
	keys := []string{"", "a", "ab", "b", "w000001", "w000010", "zz"}
	vals := []string{"", "0", "1", "10", "2", "9", "x"}
	f := func(raw []uint16, descending bool, cut uint8) bool {
		pairs := make([]kv, len(raw))
		for i, r := range raw {
			pairs[i] = kv{keys[int(r&0xff)%len(keys)], vals[int(r>>8)%len(vals)]}
		}
		if descending {
			slices.SortStableFunc(pairs, func(a, b kv) int { return strings.Compare(b.v, a.v) })
		}
		c := 0
		if len(pairs) > 0 {
			c = int(cut) % (len(pairs) + 1)
		}
		var g grouper
		return groupsMatchReference(&g, pairs[:c]) && groupsMatchReference(&g, pairs[c:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// The named cases, pinned rather than left to chance.
	var g grouper
	for _, pairs := range [][]kv{
		nil,
		{{"", "1"}, {"", "0"}, {"a", ""}},
		{{"b", "1"}, {"a", "1"}, {"b", "1"}, {"a", "1"}},
		{{"k", "9"}, {"k", "5"}, {"j", "3"}, {"k", "1"}, {"j", "0"}},
	} {
		if !groupsMatchReference(&g, pairs) {
			t.Errorf("grouper differs from the sort-merge reference on %v", pairs)
		}
	}
}

// Wordcount and Grep on a fixed corpus report exactly these counters and
// output, with and without a bounded sort buffer. The grouping strategy is
// invisible here by contract: ShuffleBytes/InputBytes is the S/I ratio
// Algorithm 1 consumes.
func TestCountersPinned(t *testing.T) {
	ccfg := corpus.DefaultConfig()
	ccfg.Seed = 2009
	text, err := corpus.Generate(ccfg, 256*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		app                                          string
		sortBuffer                                   int
		mapOut, mapOutBytes, shuffle, outRecs, spill int64
		digest                                       uint64
	}{
		{"wordcount", 0, 32771, 262168, 128524, 3570, 0, 0xddc0b5149be68f15},
		{"wordcount", 512, 32771, 262168, 128524, 3570, 96, 0xddc0b5149be68f15},
		{"grep", 0, 2560, 15360, 448, 1, 0, 0xabdab8a9dbbc6ddc},
		{"grep", 512, 2560, 15360, 448, 1, 64, 0xabdab8a9dbbc6ddc},
	} {
		t.Run(fmt.Sprintf("%s-buffer%d", tc.app, tc.sortBuffer), func(t *testing.T) {
			store := newOFS(t)
			if err := store.Create("in", text); err != nil {
				t.Fatal(err)
			}
			cfg := NewWordcount(store, "in", "out", 4, 2, 2)
			if tc.app == "grep" {
				if cfg, err = NewGrep(store, "in", "out", "w0000", 4, 2, 2); err != nil {
					t.Fatal(err)
				}
			}
			cfg.SortBufferRecords = tc.sortBuffer
			ctr, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(readAll(t, store, "out"))
			if ctr.InputBytes != 262168 || ctr.MapOutputRecords != tc.mapOut ||
				int64(ctr.MapOutputBytes) != tc.mapOutBytes ||
				int64(ctr.ShuffleBytes) != tc.shuffle || ctr.OutputRecords != tc.outRecs ||
				ctr.Spills != tc.spill || h.Sum64() != tc.digest {
				t.Errorf("input %d, map output %d records %d bytes, shuffle %d, output %d, spills %d, digest %#x; want 262168, %d, %d, %d, %d, %d, %#x",
					ctr.InputBytes, ctr.MapOutputRecords, ctr.MapOutputBytes, ctr.ShuffleBytes, ctr.OutputRecords, ctr.Spills, h.Sum64(),
					tc.mapOut, tc.mapOutBytes, tc.shuffle, tc.outRecs, tc.spill, tc.digest)
			}
		})
	}
}

// Workers reuse their grouper and split buffer across tasks, in any order
// the shared task counter hands tasks out. Output bytes and every counter
// but the wall times are the same for every slot count and sort buffer
// (Spills aside, which only the buffer sets). Lines of up to ~6 KB over
// 4 KB blocks make splits from empty to several blocks long, so a worker's
// storage serves a large task and then a small one.
func TestWorkerReuseDeterminism(t *testing.T) {
	ccfg := corpus.DefaultConfig()
	ccfg.WordsPerLine = 400
	text, err := corpus.Generate(ccfg, 128*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	counts := referenceWordcount(text)
	for _, app := range []string{"wordcount", "sort"} {
		var want []byte
		var wantCtr Counters
		for _, buffer := range []int{0, 64} {
			for _, slots := range []int{1, 2, 3, 16} {
				store := newOFS(t)
				if err := store.Create("in", text); err != nil {
					t.Fatal(err)
				}
				cfg := NewWordcount(store, "in", "out", 5, slots, slots)
				if app == "sort" {
					cfg = NewSort(store, "in", "out", 5, slots, slots)
				}
				cfg.SortBufferRecords = buffer
				ctr, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				out := readAll(t, store, "out")
				if (buffer > 0) != (ctr.Spills > 0) {
					t.Errorf("%s buffer %d: %d spills", app, buffer, ctr.Spills)
				}
				ctr.MapWall, ctr.ShuffleWall, ctr.ReduceWall, ctr.Spills = 0, 0, 0, 0
				if want == nil {
					want, wantCtr = out, ctr
					if ctr.MapTasks < 2*16 {
						t.Fatalf("%d map tasks: too few for 16 workers to reuse storage", ctr.MapTasks)
					}
					continue
				}
				if !bytes.Equal(out, want) || ctr != wantCtr {
					t.Errorf("%s slots %d buffer %d: counters %+v, output %d bytes; want %+v, %d bytes",
						app, slots, buffer, ctr, len(out), wantCtr, len(want))
				}
			}
		}
		if app == "wordcount" {
			got, err := ParseOutput(want)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(counts) {
				t.Fatalf("%d words, want %d", len(got), len(counts))
			}
			for w, n := range counts {
				if got[w] != strconv.FormatInt(n, 10) {
					t.Errorf("count[%q] = %s, want %d", w, got[w], n)
				}
			}
		}
	}
}
