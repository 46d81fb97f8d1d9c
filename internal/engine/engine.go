package engine

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hybridmr/internal/units"
)

// Mapper transforms one input record (a line) into key/value pairs.
type Mapper interface {
	// Map processes one line; emit may be called any number of times.
	Map(line []byte, emit func(key, value string)) error
}

// Reducer folds all values of one key into output pairs. A Reducer may also
// serve as the combiner, Hadoop-style, when its operation is associative.
type Reducer interface {
	Reduce(key string, values []string, emit func(key, value string)) error
}

// HashPartitioner is Hadoop's default: hash the key modulo the partitions.
func HashPartitioner(key string, n int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
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
	// Combiner, when non-nil, pre-aggregates map output per task.
	Combiner Reducer
	// Reducers is the reduce-partition count (≥ 1).
	Reducers int
	// MapSlots and ReduceSlots bound task concurrency, like the paper's
	// per-machine slot settings (§II-D).
	MapSlots, ReduceSlots int
	// SortBufferRecords bounds each map task's in-memory output buffer
	// (Hadoop's io.sort.mb, in records): a full buffer is sorted,
	// combined and spilled to a segment, and the segments are merged at
	// task end. 0 keeps everything in one buffer.
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
	ShuffleBytes     units.Bytes
	OutputRecords    int64
	OutputBytes      units.Bytes
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
	// partitions[task][r] collects task-local output per reduce partition.
	partitions := make([][][]kv, ctr.MapTasks)
	var inputRecords, mapRecords, spills int64
	var firstErr errOnce
	sem := make(chan struct{}, cfg.MapSlots)
	var wg sync.WaitGroup
	for task := 0; task < ctr.MapTasks; task++ {
		task := task
		wg.Add(1)
		sem <- struct{}{}
		go func() { //simlint:allow locksafe real execution: map-slot-bounded worker pool, joined before any result is read
			defer wg.Done()
			defer func() { <-sem }()
			out, nIn, nOut, nSpill, err := runMapTask(cfg, ds, task)
			if err != nil {
				firstErr.set(err)
				return
			}
			partitions[task] = out
			atomic.AddInt64(&inputRecords, nIn)
			atomic.AddInt64(&mapRecords, nOut)
			atomic.AddInt64(&spills, nSpill)
		}()
	}
	wg.Wait()
	if err := firstErr.get(); err != nil {
		return Counters{}, err
	}
	ctr.InputRecords = inputRecords
	ctr.MapOutputRecords = mapRecords
	ctr.Spills = spills
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
	var outRecords int64
	sem = make(chan struct{}, cfg.ReduceSlots)
	for r := 0; r < cfg.Reducers; r++ {
		r := r
		wg.Add(1)
		sem <- struct{}{}
		go func() { //simlint:allow locksafe real execution: reduce-slot-bounded worker pool, joined before any result is read
			defer wg.Done()
			defer func() { <-sem }()
			out, err := runReduceTask(cfg, byReducer[r])
			if err != nil {
				firstErr.set(err)
				return
			}
			results[r] = out
			atomic.AddInt64(&outRecords, int64(len(out)))
		}()
	}
	wg.Wait()
	if err := firstErr.get(); err != nil {
		return Counters{}, err
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

// runMapTask processes the line-aligned split of one block: like Hadoop's
// TextInputFormat, a task owns every line that *starts* within its block,
// reading past the block end to finish the last line.
func runMapTask(cfg Config, ds Dataset, task int) (out [][]kv, nIn, nOut, nSpill int64, err error) {
	split, err := readSplit(ds, task)
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("engine: job %s task %d: %w", cfg.Name, task, err)
	}
	// Map output goes straight into the task's grouper as it is emitted;
	// a bounded sort buffer spills it to sorted segments as it fills.
	sb := newSpillBuffer(cfg.SortBufferRecords, cfg.Combiner)
	var emitErr error
	emit := func(k, v string) {
		nOut++
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
		if err := cfg.Mapper.Map(line, emit); err != nil {
			return nil, 0, 0, 0, fmt.Errorf("engine: job %s task %d: %w", cfg.Name, task, err)
		}
		if emitErr != nil {
			return nil, 0, 0, 0, fmt.Errorf("engine: job %s task %d spill: %w", cfg.Name, task, emitErr)
		}
	}
	local, err := sb.drain()
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("engine: job %s task %d combiner: %w", cfg.Name, task, err)
	}
	if cfg.SortBufferRecords > 0 {
		nSpill = int64(sb.spills)
	}
	out = make([][]kv, cfg.Reducers)
	for _, p := range local {
		r := HashPartitioner(p.k, cfg.Reducers)
		out[r] = append(out[r], p)
	}
	return out, nIn, nOut, nSpill, nil
}

// readSplit returns the bytes of the task's line-aligned split.
func readSplit(ds Dataset, task int) ([]byte, error) {
	block := int64(ds.BlockSize())
	size := int64(ds.Size())
	start := int64(task) * block
	end := start + block
	if end > size {
		end = size
	}
	// Skip the partial first line (owned by the previous task), except in
	// the first block.
	if task > 0 {
		off, err := nextLineStart(ds, start-1)
		if err != nil {
			return nil, err
		}
		start = off
	}
	// Extend past the block boundary to the end of the last line.
	if end < size {
		off, err := nextLineStart(ds, end-1)
		if err != nil {
			return nil, err
		}
		end = off
	}
	if start >= end {
		return nil, nil
	}
	buf := make([]byte, end-start)
	if _, err := readFull(ds, buf, start); err != nil {
		return nil, err
	}
	return buf, nil
}

// nextLineStart returns the offset just past the first newline at or after
// off (or the dataset end).
func nextLineStart(ds Dataset, off int64) (int64, error) {
	size := int64(ds.Size())
	buf := make([]byte, 4096)
	for off < size {
		n, err := ds.ReadAt(buf, off)
		if n == 0 && err != nil {
			return size, nil
		}
		if i := bytes.IndexByte(buf[:n], '\n'); i >= 0 {
			return off + int64(i) + 1, nil
		}
		off += int64(n)
	}
	return size, nil
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

// grouper is the engine's one grouping primitive: it hashes pairs into
// per-key groups as they arrive, and sorted() then yields what Hadoop's
// sort-merge step yields — keys ascending, each key's values ascending —
// by sorting the distinct keys rather than every pair. Every map task,
// spill and reduce task owns its grouper.
type grouper struct {
	index  map[string]int // key → position in groups
	groups []group        // in first-seen order until sorted
	n      int            // pairs added since the last reset
}

func (g *grouper) add(k, v string) {
	i, ok := g.index[k]
	if !ok {
		if g.index == nil {
			g.index = make(map[string]int)
		}
		i = len(g.groups)
		g.index[k] = i
		g.groups = append(g.groups, group{key: k})
	}
	g.groups[i].values = append(g.groups[i].values, v)
	g.n++
}

// sorted orders the groups by key and each group's values ascending, and
// returns them. It invalidates the index: call reset before adding again.
func (g *grouper) sorted() []group {
	slices.SortFunc(g.groups, func(a, b group) int { return strings.Compare(a.key, b.key) })
	for _, gr := range g.groups {
		if !slices.IsSorted(gr.values) {
			slices.Sort(gr.values)
		}
	}
	return g.groups
}

// reset empties the grouper, keeping its index and group storage for reuse.
func (g *grouper) reset() {
	clear(g.index)
	g.groups = g.groups[:0]
	g.n = 0
}

func runReduceTask(cfg Config, pairs []kv) ([]kv, error) {
	var g grouper
	for _, p := range pairs {
		g.add(p.k, p.v)
	}
	grouped := g.sorted()
	out := make([]kv, 0, len(grouped))
	emit := func(k, v string) { out = append(out, kv{k, v}) }
	for _, gr := range grouped {
		if err := cfg.Reducer.Reduce(gr.key, gr.values, emit); err != nil {
			return nil, fmt.Errorf("engine: job %s reduce(%q): %w", cfg.Name, gr.key, err)
		}
	}
	return out, nil
}

// ParseOutput parses an engine output dataset ("key\tvalue" lines) into a
// map, for tests and examples.
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
		out[k] = v
	}
	return out, nil
}
