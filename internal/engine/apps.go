package engine

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"time"

	"hybridmr/internal/units"
)

// one is the value a counting Mapper emits. The engine only reads it.
var one = []byte("1")

// WordcountMapper emits (word, "1") for every whitespace-separated token —
// the paper's shuffle-intensive Wordcount (§III-A).
type WordcountMapper struct{}

// MapLine implements Mapper. The word it emits is a sub-slice of line.
func (WordcountMapper) MapLine(line []byte, emit func(k, v []byte)) error {
	for start, end := nextField(line, 0); start < end; start, end = nextField(line, end) {
		emit(line[start:end], one)
	}
	return nil
}

// Map is MapLine for callers that want string pairs: it emits the same
// pairs, each word as a new string.
func (WordcountMapper) Map(line []byte, emit func(k, v string)) error {
	for start, end := nextField(line, 0); start < end; start, end = nextField(line, end) {
		emit(string(line[start:end]), "1")
	}
	return nil
}

// parseCount returns strconv.ParseInt(v, 10, 64), error included. A plain
// decimal of 1 to 18 digits, which cannot overflow, is parsed by a loop;
// anything else, a sign, an empty or a longer string, goes to ParseInt.
func parseCount(v string) (int64, error) {
	if len(v) == 0 || len(v) > 18 {
		return strconv.ParseInt(v, 10, 64)
	}
	var n int64
	for i := 0; i < len(v); i++ {
		d := v[i] - '0'
		if d > 9 {
			return strconv.ParseInt(v, 10, 64)
		}
		n = n*10 + int64(d)
	}
	return n, nil
}

// SumReducer adds integer values; it doubles as Wordcount's combiner.
type SumReducer struct{}

// Reduce implements Reducer.
func (SumReducer) Reduce(key string, values []string, emit func(k, v string)) error {
	total := int64(0)
	for _, v := range values {
		n, err := parseCount(v)
		if err != nil {
			return fmt.Errorf("engine: sum reducer: %q: %w", v, err)
		}
		total += n
	}
	emit(key, strconv.FormatInt(total, 10))
	return nil
}

// NewWordcount returns the Wordcount job configuration.
func NewWordcount(store BlockStore, input, output string, reducers, mapSlots, reduceSlots int) Config {
	return Config{
		Name:        "wordcount",
		Store:       store,
		Input:       input,
		Output:      output,
		Mapper:      WordcountMapper{},
		Reducer:     SumReducer{},
		Combiner:    SumReducer{},
		Reducers:    reducers,
		MapSlots:    mapSlots,
		ReduceSlots: reduceSlots,
	}
}

// GrepMapper emits (pattern, "1") per matching line — the paper's Grep,
// whose shuffle is the match set (§III-A).
type GrepMapper struct {
	// re is nil when the pattern is the bare literal lit, quoted as
	// regexp.QuoteMeta quotes it; MapLine then finds lit with bytes.Index
	// instead of running the regexp.
	re  *regexp.Regexp
	lit []byte
}

// NewGrepMapper compiles the pattern.
func NewGrepMapper(pattern string) (*GrepMapper, error) {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, fmt.Errorf("engine: grep: %w", err)
	}
	// LiteralPrefix alone is not enough: it also reports a complete
	// literal for anchored patterns such as ^w0000$, which match less.
	if lit, complete := re.LiteralPrefix(); complete && regexp.QuoteMeta(lit) == pattern {
		return &GrepMapper{lit: []byte(lit)}, nil
	}
	return &GrepMapper{re: re}, nil
}

// MapLine implements Mapper. It emits what the regexp's Find returns: the
// leftmost match, as a sub-slice of line.
func (g *GrepMapper) MapLine(line []byte, emit func(k, v []byte)) error {
	var m []byte
	if g.re != nil {
		m = g.re.Find(line)
	} else if i := bytes.Index(line, g.lit); i >= 0 {
		// Sliced as Find slices: nil for a nil line, capacity cut.
		end := i + len(g.lit)
		m = line[i:end:end]
	}
	if m != nil {
		emit(m, one)
	}
	return nil
}

// NewGrep returns the Grep job configuration.
func NewGrep(store BlockStore, input, output, pattern string, reducers, mapSlots, reduceSlots int) (Config, error) {
	m, err := NewGrepMapper(pattern)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Name:        "grep",
		Store:       store,
		Input:       input,
		Output:      output,
		Mapper:      m,
		Reducer:     SumReducer{},
		Combiner:    SumReducer{},
		Reducers:    reducers,
		MapSlots:    mapSlots,
		ReduceSlots: reduceSlots,
	}, nil
}

// DFSIOResult reports a write test's outcome.
type DFSIOResult struct {
	Files      int
	FileSize   units.Bytes
	TotalBytes units.Bytes
	Wall       time.Duration
	Throughput units.BytesPerSec
}

// DFSIOWrite runs the TestDFSIO write test against a store: `files` map
// "tasks" (bounded by mapSlots workers) each generate and store one file of
// fileSize bytes, and the aggregated statistics are the single reducer's
// output — exactly the shape the paper describes in §III-C.
func DFSIOWrite(store BlockStore, prefix string, files int, fileSize units.Bytes, mapSlots int) (DFSIOResult, error) {
	if files < 1 {
		return DFSIOResult{}, fmt.Errorf("engine: dfsio: %d files", files)
	}
	if fileSize <= 0 {
		return DFSIOResult{}, fmt.Errorf("engine: dfsio: file size %d", fileSize)
	}
	if mapSlots < 1 {
		return DFSIOResult{}, fmt.Errorf("engine: dfsio: %d slots", mapSlots)
	}
	start := time.Now() //simlint:allow walltime DFSIO measures real I/O wall time by definition
	err := runTasks(files, mapSlots, func(_, i int) error {
		data := make([]byte, fileSize)
		// A cheap deterministic fill; TestDFSIO writes a
		// repeating pattern too.
		for j := range data {
			data[j] = byte('a' + (i+j)%26)
		}
		return store.Create(fmt.Sprintf("%s-%05d", prefix, i), data)
	})
	if err != nil {
		return DFSIOResult{}, err
	}
	wall := time.Since(start) //simlint:allow walltime DFSIO measures real I/O wall time by definition
	total := units.Bytes(files) * fileSize
	res := DFSIOResult{Files: files, FileSize: fileSize, TotalBytes: total, Wall: wall}
	if wall > 0 {
		res.Throughput = units.BytesPerSec(float64(total) / wall.Seconds())
	}
	return res, nil
}
