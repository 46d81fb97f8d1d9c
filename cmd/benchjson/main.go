// Command benchjson converts `go test -bench` output into the repo's
// BENCH_<date>.json perf-trajectory format: one record per benchmark with
// ns/op, B/op, allocs/op and any custom metrics (events/sec). It reads the
// benchmark text from stdin and writes JSON to stdout:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson > BENCH_$(date +%F).json
//
// Lines that are not benchmark results (package headers, PASS/ok, assertion
// chatter) are ignored, so the whole `go test` stream can be piped through.
// A benchmark that appears more than once keeps its least ns/op, B/op and
// allocs/op (see leastOf).
//
// With -diff it becomes a regression gate instead:
//
//	benchjson -diff [-ns-tol 15] [-alloc-tol 0] old.json new.json [name...]
//
// compares two reports and exits non-zero when any named benchmark (all
// benchmarks common to both files if no names are given) regressed: ns/op
// worse by more than -ns-tol percent, or allocs/op worse by more than
// -alloc-tol percent (default 0 — any alloc growth fails, since the pooled
// replay path is supposed to be allocation-flat). B/op is printed beside
// allocs/op for each benchmark but gates nothing. A name listed on the
// command line but missing from either file is an error, so CI cannot pass
// by silently dropping a gated benchmark.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present only under -benchmem.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric units, e.g. "events/sec".
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the BENCH_<date>.json document.
type Report struct {
	Date       string      `json:"date"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	date := flag.String("date", time.Now().Format("2006-01-02"), "date stamp for the report")
	diff := flag.Bool("diff", false, "compare two reports (old.json new.json [name...]) and fail on regression")
	nsTol := flag.Float64("ns-tol", 15, "with -diff: allowed ns/op regression in percent")
	allocTol := flag.Float64("alloc-tol", 0, "with -diff: allowed allocs/op regression in percent")
	flag.Parse()

	if *diff {
		out, failed, err := runDiff(flag.Args(), *nsTol, *allocTol, readReport)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
		if failed {
			os.Exit(1)
		}
		return
	}

	rep := Report{
		Date:      *date,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		if b, ok := parseLine(sc.Text()); ok {
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if len(rep.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found on stdin"))
	}
	rep.Benchmarks = leastOf(rep.Benchmarks)
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

// parseLine parses one `go test -bench` result line:
//
//	BenchmarkName-8   123   456.7 ns/op   89 B/op   1 allocs/op   1000 events/sec
//
// The name keeps any sub-benchmark path but drops the -GOMAXPROCS suffix so
// reports diff cleanly across machines with different core counts.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	b := Benchmark{Name: name, Iterations: iters}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
			seen = true
		case "B/op":
			b.BytesPerOp = ptr(v)
		case "allocs/op":
			b.AllocsPerOp = ptr(v)
		default:
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[unit] = v
		}
	}
	return b, seen
}

func ptr(v float64) *float64 { return &v }

// leastOf merges repeated runs of a benchmark into one record, in
// first-seen order, keeping the least ns/op, B/op and allocs/op, and the
// custom metrics of the fastest run. Noise on a shared host, and the
// runtime allocating a goroutine descriptor or wait-queue entry when a
// free list runs dry, only ever add time and allocations, so the least of
// several runs is the code's own count. A real extra allocation shows in
// every run and so in the least.
func leastOf(bs []Benchmark) []Benchmark {
	var out []Benchmark
	at := make(map[string]int)
	for _, b := range bs {
		i, ok := at[b.Name]
		if !ok {
			at[b.Name] = len(out)
			out = append(out, b)
			continue
		}
		m := &out[i]
		if b.NsPerOp < m.NsPerOp {
			m.NsPerOp, m.Iterations, m.Metrics = b.NsPerOp, b.Iterations, b.Metrics
		}
		m.BytesPerOp = least(m.BytesPerOp, b.BytesPerOp)
		m.AllocsPerOp = least(m.AllocsPerOp, b.AllocsPerOp)
	}
	return out
}

// least returns the smaller of two optional values; a missing one yields
// to a present one.
func least(a, b *float64) *float64 {
	if a == nil || b != nil && *b < *a {
		return b
	}
	return a
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
	os.Exit(1)
}
