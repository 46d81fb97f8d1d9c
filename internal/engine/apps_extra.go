package engine

import (
	"fmt"
	"strconv"
	"time"

	"hybridmr/internal/units"
)

// SortMapper emits (token, "") for every token: with the identity reducer
// this implements a distributed sort, the S/I ≈ 1 workload between Grep and
// Wordcount in the scheduler's ratio bands.
type SortMapper struct{}

// MapLine implements Mapper.
func (SortMapper) MapLine(line []byte, emit func(k, v []byte)) error {
	for start, end := nextField(line, 0); start < end; start, end = nextField(line, end) {
		emit(line[start:end], nil)
	}
	return nil
}

// IdentityReducer re-emits every (key, value) pair unchanged; the engine's
// sort-merge step provides the ordering.
type IdentityReducer struct{}

// Reduce implements Reducer.
func (IdentityReducer) Reduce(key string, values []string, emit func(k, v string)) error {
	for _, v := range values {
		emit(key, v)
	}
	return nil
}

// NewSort returns the distributed-sort job configuration. It runs without a
// combiner (sorting preserves duplicates).
func NewSort(store BlockStore, input, output string, reducers, mapSlots, reduceSlots int) Config {
	return Config{
		Name:        "sort",
		Store:       store,
		Input:       input,
		Output:      output,
		Mapper:      SortMapper{},
		Reducer:     IdentityReducer{},
		Reducers:    reducers,
		MapSlots:    mapSlots,
		ReduceSlots: reduceSlots,
	}
}

// DFSIORead runs the TestDFSIO read test: every file written by a prior
// DFSIOWrite with the same prefix is read back in full by one map "task"
// (bounded by mapSlots workers), and the aggregate throughput is reported.
func DFSIORead(store BlockStore, prefix string, mapSlots int) (DFSIOResult, error) {
	if mapSlots < 1 {
		return DFSIOResult{}, fmt.Errorf("engine: dfsio-read: %d slots", mapSlots)
	}
	var names []string
	for _, n := range store.List() {
		if len(n) > len(prefix) && n[:len(prefix)] == prefix {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return DFSIOResult{}, fmt.Errorf("engine: dfsio-read: no files with prefix %q", prefix)
	}
	start := time.Now() //simlint:allow walltime DFSIO measures real I/O wall time by definition
	sizes := make([]units.Bytes, len(names))
	err := runTasks(len(names), mapSlots, func(_, i int) error {
		ds, err := store.Open(names[i])
		if err != nil {
			return err
		}
		buf := make([]byte, ds.Size())
		if _, err := readFull(ds, buf, 0); err != nil {
			return fmt.Errorf("engine: dfsio-read %s: %w", names[i], err)
		}
		// Touch the bytes so the read cannot be elided.
		var sum byte
		for _, c := range buf {
			sum ^= c
		}
		_ = sum
		sizes[i] = units.Bytes(len(buf))
		return nil
	})
	if err != nil {
		return DFSIOResult{}, err
	}
	var total units.Bytes
	for _, n := range sizes {
		total += n
	}
	wall := time.Since(start) //simlint:allow walltime DFSIO measures real I/O wall time by definition
	res := DFSIOResult{Files: len(names), FileSize: sizes[len(sizes)-1], TotalBytes: total, Wall: wall}
	if wall > 0 {
		res.Throughput = units.BytesPerSec(float64(total) / wall.Seconds())
	}
	return res, nil
}

// TopKReducer keeps only keys whose summed count reaches the threshold —
// a selective reducer exercising emit-filtering.
type TopKReducer struct {
	// MinCount filters the output to words at least this frequent.
	MinCount int64
}

// Reduce implements Reducer.
func (r TopKReducer) Reduce(key string, values []string, emit func(k, v string)) error {
	var total int64
	for _, v := range values {
		n, err := parseCount(v)
		if err != nil {
			return fmt.Errorf("engine: topk reducer: %q: %w", v, err)
		}
		total += n
	}
	if total >= r.MinCount {
		emit(key, strconv.FormatInt(total, 10))
	}
	return nil
}
