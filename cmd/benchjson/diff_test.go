package main

import (
	"fmt"
	"strings"
	"testing"
)

// fakeLoader returns canned reports keyed by path.
func fakeLoader(reps map[string]Report) func(string) (Report, error) {
	return func(path string) (Report, error) {
		return reps[path], nil
	}
}

func bench(name string, ns float64, allocs float64) Benchmark {
	return Benchmark{Name: name, Iterations: 1, NsPerOp: ns, AllocsPerOp: ptr(allocs)}
}

func TestDiffPassesWithinTolerance(t *testing.T) {
	load := fakeLoader(map[string]Report{
		"old.json": {Benchmarks: []Benchmark{bench("BenchmarkFig10", 100e6, 400)}},
		"new.json": {Benchmarks: []Benchmark{bench("BenchmarkFig10", 110e6, 400)}},
	})
	out, failed, err := runDiff([]string{"old.json", "new.json"}, 15, 0, load)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatalf("10%% ns growth within 15%% tolerance reported as regression:\n%s", out)
	}
	if !strings.Contains(out, "ok: no benchmark regressions") {
		t.Fatalf("missing ok line:\n%s", out)
	}
}

func TestDiffFailsOnNsRegression(t *testing.T) {
	load := fakeLoader(map[string]Report{
		"old.json": {Benchmarks: []Benchmark{bench("BenchmarkFig10", 100e6, 400)}},
		"new.json": {Benchmarks: []Benchmark{bench("BenchmarkFig10", 130e6, 400)}},
	})
	out, failed, err := runDiff([]string{"old.json", "new.json"}, 15, 0, load)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatalf("30%% ns regression not flagged:\n%s", out)
	}
	if !strings.Contains(out, "REGRESSION") {
		t.Fatalf("missing REGRESSION marker:\n%s", out)
	}
}

func TestDiffFailsOnAnyAllocGrowth(t *testing.T) {
	// The default alloc tolerance is zero: 400 -> 401 allocs must fail even
	// though ns/op improved.
	load := fakeLoader(map[string]Report{
		"old.json": {Benchmarks: []Benchmark{bench("BenchmarkFig10", 100e6, 400)}},
		"new.json": {Benchmarks: []Benchmark{bench("BenchmarkFig10", 90e6, 401)}},
	})
	_, failed, err := runDiff([]string{"old.json", "new.json"}, 15, 0, load)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatal("single-alloc growth passed a zero alloc tolerance")
	}
}

// B/op is reported old → new beside allocs/op but gates nothing: a 50%
// byte growth with flat allocs still passes.
func TestDiffReportsBytesWithoutGating(t *testing.T) {
	withBytes := func(ns, allocs, bytes float64) Benchmark {
		b := bench("BenchmarkFig10", ns, allocs)
		b.BytesPerOp = ptr(bytes)
		return b
	}
	load := fakeLoader(map[string]Report{
		"old.json": {Benchmarks: []Benchmark{withBytes(100e6, 146, 6429152)}},
		"new.json": {Benchmarks: []Benchmark{withBytes(100e6, 146, 9643728)}},
	})
	out, failed, err := runDiff([]string{"old.json", "new.json"}, 15, 0, load)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatalf("byte growth gated:\n%s", out)
	}
	want := fmt.Sprintf("%-44s %14d %14d %+7.1f%%\n", "BenchmarkFig10 [B/op]", 6429152, 9643728, 50.0)
	if !strings.Contains(out, want) {
		t.Fatalf("missing B/op line %q in:\n%s", want, out)
	}
	if strings.Index(out, "[allocs]") > strings.Index(out, "[B/op]") {
		t.Fatalf("B/op line should follow the allocs line:\n%s", out)
	}

	// Without -benchmem fields in either report there is no B/op line.
	load = fakeLoader(map[string]Report{
		"old.json": {Benchmarks: []Benchmark{bench("BenchmarkFig10", 100e6, 146)}},
		"new.json": {Benchmarks: []Benchmark{bench("BenchmarkFig10", 100e6, 146)}},
	})
	if out, _, _ = runDiff([]string{"old.json", "new.json"}, 15, 0, load); strings.Contains(out, "[B/op]") {
		t.Fatalf("B/op line printed without bytes:\n%s", out)
	}
}

func TestDiffErrorsOnMissingNamedBenchmark(t *testing.T) {
	load := fakeLoader(map[string]Report{
		"old.json": {Benchmarks: []Benchmark{bench("BenchmarkFig10", 100e6, 400)}},
		"new.json": {Benchmarks: []Benchmark{bench("BenchmarkFig10", 100e6, 400)}},
	})
	_, _, err := runDiff([]string{"old.json", "new.json", "BenchmarkGone"}, 15, 0, load)
	if err == nil {
		t.Fatal("gated benchmark missing from both reports did not error")
	}
}

func TestDiffDefaultsToCommonBenchmarks(t *testing.T) {
	// Unnamed mode gates the intersection: the benchmark present only in the
	// old report is ignored, the common one is compared.
	load := fakeLoader(map[string]Report{
		"old.json": {Benchmarks: []Benchmark{
			bench("BenchmarkRetired", 1e6, 1),
			bench("BenchmarkKept", 100, 10),
		}},
		"new.json": {Benchmarks: []Benchmark{bench("BenchmarkKept", 100, 10)}},
	})
	out, failed, err := runDiff([]string{"old.json", "new.json"}, 15, 0, load)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatalf("identical common benchmark flagged:\n%s", out)
	}
	if strings.Contains(out, "BenchmarkRetired") {
		t.Fatalf("retired benchmark should not be gated:\n%s", out)
	}
}

func TestPctDelta(t *testing.T) {
	cases := []struct {
		old, new, want float64
	}{
		{100, 115, 15},
		{100, 85, -15},
		{0, 0, 0},
		{0, 5, 100},
	}
	for _, c := range cases {
		if got := pctDelta(c.old, c.new); got != c.want {
			t.Errorf("pctDelta(%v, %v) = %v, want %v", c.old, c.new, got, c.want)
		}
	}
}
