package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hybridmr/internal/units"
)

// Mapper transforms one input record (a line) into key/value pairs. As in
// Hadoop, where an OutputCollector serializes reused Writables, the engine
// reuses storage on both sides of the call: a Mapper must not keep the line
// once MapLine returns, and the engine copies what it keeps of an emitted
// key and value before emit returns, so the Mapper may overwrite them at
// once.
type Mapper interface {
	// MapLine processes one line; emit may be called any number of times.
	MapLine(line []byte, emit func(key, value []byte)) error
}

// Reducer folds all values of one key into output pairs. A Reducer may also
// serve as the combiner, Hadoop-style, when its operation is associative
// and commutative.
// As in Hadoop, the engine reuses the values' storage once Reduce returns,
// so a Reducer must not keep the slice.
type Reducer interface {
	Reduce(key string, values []string, emit func(key, value string)) error
}

// HashPartitioner is Hadoop's default: hash the key modulo the partitions.
func HashPartitioner(key string, n int) int {
	// FNV-1a, 32-bit (hash/fnv's New32a), inlined so it allocates nothing.
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// Config describes one engine job.
type Config struct {
	// Name labels the job in errors.
	Name string
	// Store holds the input and receives the output.
	Store BlockStore
	// Input is the dataset name to read.
	Input string
	// Output is the dataset name to create with the reduce output
	// ("key\tvalue" lines, sorted by key). Empty discards the output.
	Output string
	// Mapper and Reducer implement the application.
	Mapper  Mapper
	Reducer Reducer
	// Combiner, when non-nil, pre-aggregates map output per task. Unlike
	// the Reducer, it sees keys in the order the task first emitted them
	// and each key's values in emit order, so it must depend on neither.
	Combiner Reducer
	// Reducers is the reduce-partition count (≥ 1).
	Reducers int
	// MapSlots and ReduceSlots bound task concurrency, like the paper's
	// per-machine slot settings (§II-D).
	MapSlots, ReduceSlots int
	// SortBufferRecords bounds each map task's in-memory output buffer
	// (Hadoop's io.sort.mb, in records): a full buffer is grouped by key,
	// combined and spilled to a segment, and the segments are merged at
	// task end. Only the reduce side sorts. 0 keeps everything in one
	// buffer.
	SortBufferRecords int
}

// Counters reports what a job did, mirroring Hadoop's job counters and the
// paper's measured quantities (input, shuffle and output sizes, per-phase
// durations).
type Counters struct {
	InputBytes       units.Bytes
	InputRecords     int64
	MapTasks         int
	MapOutputRecords int64
	// MapOutputBytes is Hadoop's "Map output bytes": len(key)+len(value)
	// of every emitted pair, counted before any combiner runs.
	MapOutputBytes units.Bytes
	// ShuffleBytes is the same sum over the pairs the reducers receive,
	// after the combiner (Hadoop's "Reduce shuffle bytes").
	ShuffleBytes  units.Bytes
	OutputRecords int64
	OutputBytes   units.Bytes
	// Spills counts map-side buffer spills (Hadoop's "Spilled Records"
	// cousin); nonzero only when SortBufferRecords bounds the buffer.
	Spills      int64
	MapWall     time.Duration
	ShuffleWall time.Duration
	ReduceWall  time.Duration
}

// ShuffleInputRatio returns the measured shuffle/input ratio — the quantity
// the paper's Algorithm 1 takes as input from earlier runs of the job.
func (c Counters) ShuffleInputRatio() units.Ratio {
	if c.InputBytes == 0 {
		return 0
	}
	return units.Ratio(float64(c.ShuffleBytes) / float64(c.InputBytes))
}

func (cfg *Config) validate() error {
	switch {
	case cfg.Store == nil:
		return fmt.Errorf("engine: job %s: no store", cfg.Name)
	case cfg.Input == "":
		return fmt.Errorf("engine: job %s: no input", cfg.Name)
	case cfg.Mapper == nil:
		return fmt.Errorf("engine: job %s: no mapper", cfg.Name)
	case cfg.Reducer == nil:
		return fmt.Errorf("engine: job %s: no reducer", cfg.Name)
	case cfg.Reducers < 1:
		return fmt.Errorf("engine: job %s: %d reducers", cfg.Name, cfg.Reducers)
	case cfg.MapSlots < 1 || cfg.ReduceSlots < 1:
		return fmt.Errorf("engine: job %s: non-positive slots", cfg.Name)
	case cfg.SortBufferRecords < 0:
		return fmt.Errorf("engine: job %s: negative sort buffer", cfg.Name)
	}
	return nil
}

// kv is one intermediate pair.
type kv struct{ k, v string }

// errOnce records the first error reported by any worker.
type errOnce struct {
	mu  sync.Mutex
	err error
}

func (e *errOnce) set(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err == nil {
		e.err = err
	}
}

func (e *errOnce) get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// runTasks runs tasks 0..n-1 on min(slots, n) worker goroutines, the
// engine's one slot pool. Workers pull task numbers from a shared counter
// and start no new task once one has failed; runTasks returns after every
// worker has exited, with the first error reported. run is passed the
// worker's number w (0 ≤ w < min(slots, n)) so that state indexed by it is
// owned by one goroutine and reused across that worker's tasks. Callers
// store a task's result in the task's own slot, so output never depends on
// which worker ran which task.
func runTasks(n, slots int, run func(worker, task int) error) error {
	var next atomic.Int64
	var firstErr errOnce
	var wg sync.WaitGroup
	workers := min(slots, n)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() { //simlint:allow locksafe real execution: slot-bounded worker pool, joined before any result is read
			defer wg.Done()
			for task := int(next.Add(1) - 1); task < n && firstErr.get() == nil; task = int(next.Add(1) - 1) {
				if err := run(w, task); err != nil {
					firstErr.set(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr.get()
}

// worker is the storage one worker reuses across its tasks. Worker w of the
// map phase and worker w of the reduce phase share it, one phase after the
// other.
type worker struct {
	g     grouper
	split []byte // the map task's input split
}

// Run executes the job: line-aligned splits per block, a map worker pool of
// MapSlots, per-task grouping and combining, hash partitioning into Reducers
// partitions, and a reduce worker pool of ReduceSlots.
func Run(cfg Config) (Counters, error) {
	if err := cfg.validate(); err != nil {
		return Counters{}, err
	}
	ds, err := cfg.Store.Open(cfg.Input)
	if err != nil {
		return Counters{}, err
	}

	var ctr Counters
	ctr.InputBytes = ds.Size()
	ctr.MapTasks = ds.NumBlocks()
	if ctr.MapTasks == 0 {
		return Counters{}, fmt.Errorf("engine: job %s: empty input", cfg.Name)
	}

	// ---- Map phase ----
	mapStart := time.Now() //simlint:allow walltime Counters report the real engine's measured wall time, not sim time
	workers := make([]worker, max(min(cfg.MapSlots, ctr.MapTasks), min(cfg.ReduceSlots, cfg.Reducers)))
	// partitions[task][r] collects task-local output per reduce partition.
	partitions := make([][][]kv, ctr.MapTasks)
	starts := splitStarts(ds)
	var mc mapCounters
	err = runTasks(ctr.MapTasks, cfg.MapSlots, func(w, task int) (err error) {
		partitions[task], err = runMapTask(cfg, ds, task, starts, &workers[w], &mc)
		return err
	})
	if err != nil {
		return Counters{}, err
	}
	ctr.InputRecords = mc.inputRecords.Load()
	ctr.MapOutputRecords = mc.outputRecords.Load()
	ctr.MapOutputBytes = units.Bytes(mc.outputBytes.Load())
	ctr.Spills = mc.spills.Load()
	ctr.MapWall = time.Since(mapStart) //simlint:allow walltime Counters report the real engine's measured wall time, not sim time

	// ---- Shuffle: regroup per reduce partition ----
	shuffleStart := time.Now() //simlint:allow walltime Counters report the real engine's measured wall time, not sim time
	byReducer := make([][]kv, cfg.Reducers)
	for r := range byReducer {
		n := 0
		for _, taskOut := range partitions {
			n += len(taskOut[r])
		}
		byReducer[r] = make([]kv, 0, n)
	}
	var shuffleBytes int64
	for _, taskOut := range partitions {
		for r, pairs := range taskOut {
			byReducer[r] = append(byReducer[r], pairs...)
			for _, p := range pairs {
				shuffleBytes += int64(len(p.k) + len(p.v))
			}
		}
	}
	ctr.ShuffleBytes = units.Bytes(shuffleBytes)
	ctr.ShuffleWall = time.Since(shuffleStart) //simlint:allow walltime Counters report the real engine's measured wall time, not sim time

	// ---- Reduce phase ----
	reduceStart := time.Now() //simlint:allow walltime Counters report the real engine's measured wall time, not sim time
	results := make([][]kv, cfg.Reducers)
	err = runTasks(cfg.Reducers, cfg.ReduceSlots, func(w, r int) (err error) {
		results[r], err = runReduceTask(cfg, byReducer[r], &workers[w].g)
		return err
	})
	if err != nil {
		return Counters{}, err
	}
	var outRecords int64
	for _, out := range results {
		outRecords += int64(len(out))
	}
	ctr.OutputRecords = outRecords
	ctr.ReduceWall = time.Since(reduceStart) //simlint:allow walltime Counters report the real engine's measured wall time, not sim time

	// ---- Output ----
	var buf bytes.Buffer
	all := make([]kv, 0, outRecords)
	for _, out := range results {
		all = append(all, out...)
	}
	// Stable: a key's records keep the order its reducer emitted them in.
	slices.SortStableFunc(all, func(a, b kv) int { return strings.Compare(a.k, b.k) })
	for _, p := range all {
		buf.WriteString(p.k)
		buf.WriteByte('\t')
		buf.WriteString(p.v)
		buf.WriteByte('\n')
	}
	ctr.OutputBytes = units.Bytes(buf.Len())
	if cfg.Output != "" {
		if err := cfg.Store.Create(cfg.Output, buf.Bytes()); err != nil {
			return Counters{}, err
		}
	}
	return ctr, nil
}

// mapCounters sums the map tasks' counts across workers.
type mapCounters struct {
	inputRecords, outputRecords, outputBytes, spills atomic.Int64
}

// runMapTask processes the line-aligned split of one block, the bytes from
// starts[task] to starts[task+1] (see splitStarts). The worker's grouper is
// empty on entry and, when the task succeeds, on return (a failed task ends
// its worker).
func runMapTask(cfg Config, ds Dataset, task int, starts []int64, wk *worker, mc *mapCounters) ([][]kv, error) {
	split, err := readSplit(ds, starts[task], starts[task+1], wk.split)
	if err != nil {
		return nil, fmt.Errorf("engine: job %s task %d: %w", cfg.Name, task, err)
	}
	wk.split = split
	// Map output goes straight into the grouper as it is emitted; a
	// bounded sort buffer spills it to grouped segments as it fills.
	sb := spillBuffer{bound: cfg.SortBufferRecords, combiner: cfg.Combiner, g: &wk.g}
	var nIn, nOut, outBytes int64
	var emitErr error
	emit := func(k, v []byte) {
		nOut++
		outBytes += int64(len(k) + len(v))
		if emitErr == nil {
			emitErr = sb.add(k, v)
		}
	}
	for len(split) > 0 {
		nl := bytes.IndexByte(split, '\n')
		var line []byte
		if nl < 0 {
			line, split = split, nil
		} else {
			line, split = split[:nl], split[nl+1:]
		}
		if len(line) == 0 {
			continue
		}
		nIn++
		if err := cfg.Mapper.MapLine(line, emit); err != nil {
			return nil, fmt.Errorf("engine: job %s task %d: %w", cfg.Name, task, err)
		}
		if emitErr != nil {
			return nil, fmt.Errorf("engine: job %s task %d spill: %w", cfg.Name, task, emitErr)
		}
	}
	local, err := sb.drain()
	if err != nil {
		return nil, fmt.Errorf("engine: job %s task %d combiner: %w", cfg.Name, task, err)
	}
	// Count each partition first, so each is allocated once at its size.
	counts := make([]int, cfg.Reducers)
	for _, p := range local {
		counts[HashPartitioner(p.k, cfg.Reducers)]++
	}
	out := make([][]kv, cfg.Reducers)
	for r, n := range counts {
		out[r] = make([]kv, 0, n)
	}
	for _, p := range local {
		r := HashPartitioner(p.k, cfg.Reducers)
		out[r] = append(out[r], p)
	}
	mc.inputRecords.Add(nIn)
	mc.outputRecords.Add(nOut)
	mc.outputBytes.Add(outBytes)
	if cfg.SortBufferRecords > 0 {
		mc.spills.Add(int64(sb.spills))
	}
	return out, nil
}

// splitStarts returns where each map task's line-aligned split starts, with
// the dataset size appended: task t reads the bytes [starts[t], starts[t+1]).
// Like Hadoop's TextInputFormat, a task owns every line that *starts* within
// its block, reading past the block end to finish the last line, so a split
// starts just past the first newline at or after its block start minus one.
// Each boundary is found once per job. When the previous boundary already
// lies at or past a block's start (a line longer than a block), that block
// owns no line start and shares the boundary, so a long line is scanned once
// rather than once for every block it spans.
func splitStarts(ds Dataset) []int64 {
	block := int64(ds.BlockSize())
	n := ds.NumBlocks()
	starts := make([]int64, n+1)
	probe := make([]byte, min(lineProbe, block))
	for t := 1; t < n; t++ {
		if off := int64(t) * block; starts[t-1] >= off {
			starts[t] = starts[t-1]
		} else {
			starts[t] = nextLineStart(ds, off-1, probe)
		}
	}
	starts[n] = int64(ds.Size())
	return starts
}

// readSplit returns the bytes [start, end) of the dataset, read into buf's
// storage when it is large enough.
func readSplit(ds Dataset, start, end int64, buf []byte) ([]byte, error) {
	buf = slices.Grow(buf[:0], int(end-start))[:end-start]
	if _, err := readFull(ds, buf, start); err != nil {
		return nil, err
	}
	return buf, nil
}

// lineProbe is the largest read nextLineStart scans for a newline with.
const lineProbe = 4096

// nextLineStart returns the offset just past the first newline at or after
// off (or the dataset end), reading through buf.
func nextLineStart(ds Dataset, off int64, buf []byte) int64 {
	size := int64(ds.Size())
	for off < size {
		n, err := ds.ReadAt(buf, off)
		if n == 0 && err != nil {
			return size
		}
		if i := bytes.IndexByte(buf[:n], '\n'); i >= 0 {
			return off + int64(i) + 1
		}
		off += int64(n)
	}
	return size
}

func readFull(ds Dataset, p []byte, off int64) (int, error) {
	total := 0
	for total < len(p) {
		n, err := ds.ReadAt(p[total:], off+int64(total))
		total += n
		if err != nil {
			if total == len(p) {
				break
			}
			return total, err
		}
	}
	return total, nil
}

// group is one key and its values.
type group struct {
	key    string
	values []string
}

// grouper is the engine's one grouping primitive. It numbers keys in the
// order they first arrive and records each added pair as a (group number,
// value end) entry in two flat slices, the value's bytes appended to one
// arena, so once its storage has grown an add allocates nothing but the
// copy of a key the grouper has not seen since its last reset. groups()
// counting-sorts the values into their groups and yields them in
// first-seen key order, which is all the map side needs; sorted() then
// yields what Hadoop's sort-merge step yields — keys ascending, each key's
// values ascending — by sorting the groups by key, never every pair. A
// worker owns one grouper and resets it between tasks and spills, so the
// storage is sized by the worker's largest task, not allocated per task.
type grouper struct {
	index map[string]int32 // key → group number
	keys  []string         // group number → key
	gids  []int32          // group number of each pair, in add order
	arena []byte           // the values, concatenated in add order
	vends []int32          // end of each pair's value in arena

	// Scratch for groups(), reused across calls.
	ends    []int32  // group number → end of its values in flat
	flat    []string // the values, grouped by group number
	grouped []group  // what groups() and sorted() return
}

// add groups one pair. It is the grouper's one add path, for the byte
// slices a Mapper emits and the strings the combiner, merge and shuffle
// pass on alike. It keeps no reference to k or v: the lookup
// index[string(k)] does not allocate, a key new to the grouper is copied
// once, and the value is copied into the arena. The arena's int32 offsets
// bound it to 2 GiB; an add past that fails.
func add[T string | []byte](g *grouper, k, v T) error {
	if len(g.arena)+len(v) > math.MaxInt32 {
		return errArenaFull
	}
	i, ok := g.index[string(k)]
	if !ok {
		if g.index == nil {
			g.index = make(map[string]int32)
		}
		i = int32(len(g.keys))
		key := string(k)
		g.index[key] = i
		g.keys = append(g.keys, key)
	}
	g.gids = append(g.gids, i)
	g.arena = append(g.arena, v...)
	g.vends = append(g.vends, int32(len(g.arena)))
	return nil
}

var errArenaFull = errors.New("engine: over 2 GiB of values in one grouping buffer")

// len returns the number of pairs added since the last reset.
func (g *grouper) len() int { return len(g.gids) }

// groups returns the groups in the order their keys were first added,
// each group's values in add order. The values are substrings of one string
// copied from the arena per call. The groups and their value slices live
// in the grouper's scratch storage: they are valid until groups or sorted
// is called again.
func (g *grouper) groups() []group {
	n := len(g.keys)
	// Counting sort, stable in add order. ends[i+1] counts group i, the
	// prefix sum turns ends[i] into group i's start, and placing the values
	// advances it to group i's end; so group i is flat[ends[i-1]:ends[i]],
	// with ends[-1] read as 0.
	g.ends = slices.Grow(g.ends[:0], n+1)[:n+1]
	clear(g.ends)
	for _, i := range g.gids {
		g.ends[i+1]++
	}
	for i := 1; i <= n; i++ {
		g.ends[i] += g.ends[i-1]
	}
	arena := string(g.arena)
	g.flat = slices.Grow(g.flat[:0], len(g.gids))[:len(g.gids)]
	start := int32(0)
	for j, i := range g.gids {
		end := g.vends[j]
		g.flat[g.ends[i]] = arena[start:end]
		g.ends[i]++
		start = end
	}
	g.grouped = g.grouped[:0]
	start = 0
	for i, key := range g.keys {
		end := g.ends[i]
		// The capacity bound keeps a combiner that appends to its values
		// from overwriting the next group's.
		g.grouped = append(g.grouped, group{key: key, values: g.flat[start:end:end]})
		start = end
	}
	return g.grouped
}

// sorted returns groups() in key order, each group's values ascending: the
// order a reducer sees. Its storage is groups()'s.
func (g *grouper) sorted() []group {
	groups := g.groups()
	slices.SortFunc(groups, func(a, b group) int { return strings.Compare(a.key, b.key) })
	for _, gr := range groups {
		if !slices.IsSorted(gr.values) {
			slices.Sort(gr.values)
		}
	}
	return groups
}

// reset empties the grouper, keeping all of its storage for reuse.
func (g *grouper) reset() {
	clear(g.index)
	g.keys = g.keys[:0]
	g.gids = g.gids[:0]
	g.arena = g.arena[:0]
	g.vends = g.vends[:0]
}

// runReduceTask groups one partition's shuffled pairs in the worker's
// grouper g and runs the reducer over each group in key order.
func runReduceTask(cfg Config, pairs []kv, g *grouper) ([]kv, error) {
	for _, p := range pairs {
		if err := add(g, p.k, p.v); err != nil {
			return nil, fmt.Errorf("engine: job %s reduce: %w", cfg.Name, err)
		}
	}
	grouped := g.sorted()
	out := make([]kv, 0, len(grouped))
	emit := func(k, v string) { out = append(out, kv{k, v}) }
	for _, gr := range grouped {
		if err := cfg.Reducer.Reduce(gr.key, gr.values, emit); err != nil {
			return nil, fmt.Errorf("engine: job %s reduce(%q): %w", cfg.Name, gr.key, err)
		}
	}
	g.reset()
	return out, nil
}

// ParseOutput parses an engine output dataset ("key\tvalue" lines) into a
// map, for tests and examples. A key on two lines is an error: the map
// could keep only one of its values.
func ParseOutput(data []byte) (map[string]string, error) {
	out := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		k, v, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("engine: malformed output line %q", line)
		}
		if _, dup := out[k]; dup {
			return nil, fmt.Errorf("engine: duplicate output key %q", k)
		}
		out[k] = v
	}
	return out, nil
}
