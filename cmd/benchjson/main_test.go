package main

import "testing"

func TestParseLine(t *testing.T) {
	b, ok := parseLine("BenchmarkDispatchDeepQueue/jobs=5000/fifo-8 \t 3\t 44500000 ns/op\t 3240000 events/sec\t 1234 B/op\t 56 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if b.Name != "BenchmarkDispatchDeepQueue/jobs=5000/fifo" {
		t.Errorf("name = %q (GOMAXPROCS suffix should be stripped)", b.Name)
	}
	if b.Iterations != 3 || b.NsPerOp != 44500000 {
		t.Errorf("iters=%d ns/op=%v", b.Iterations, b.NsPerOp)
	}
	if b.BytesPerOp == nil || *b.BytesPerOp != 1234 || b.AllocsPerOp == nil || *b.AllocsPerOp != 56 {
		t.Errorf("benchmem fields wrong: %+v", b)
	}
	if b.Metrics["events/sec"] != 3240000 {
		t.Errorf("custom metric wrong: %v", b.Metrics)
	}
}

func TestParseLineRejectsChatter(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  \thybridmr\t12.3s",
		"BenchmarkBroken no numbers here",
		"Benchmark only-a-name",
		"",
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("parsed non-benchmark line %q", line)
		}
	}
}

func TestParseLineKeepsHyphenatedSubName(t *testing.T) {
	// A trailing -N is only stripped when N is the numeric GOMAXPROCS
	// suffix; a hyphenated sub-benchmark name survives.
	b, ok := parseLine("BenchmarkX/case-a \t 10\t 5.0 ns/op")
	if !ok || b.Name != "BenchmarkX/case-a" {
		t.Errorf("name = %q, ok=%v", b.Name, ok)
	}
}

// Repeated runs of a benchmark merge into one record with the least ns/op,
// B/op and allocs/op, the fastest run's metrics, in first-seen order.
func TestLeastOfMergesRepeatedRuns(t *testing.T) {
	var bs []Benchmark
	for _, line := range []string{
		"BenchmarkA-2   10   300 ns/op   9 B/op   621 allocs/op   5 events/sec",
		"BenchmarkB-2   10   50 ns/op   0 B/op   0 allocs/op",
		"BenchmarkA-2   10   200 ns/op   8 B/op   622 allocs/op   7 events/sec",
		"BenchmarkA-2   10   400 ns/op   10 B/op   620 allocs/op   3 events/sec",
	} {
		b, ok := parseLine(line)
		if !ok {
			t.Fatalf("parseLine(%q) failed", line)
		}
		bs = append(bs, b)
	}
	got := leastOf(bs)
	if len(got) != 2 || got[0].Name != "BenchmarkA" || got[1].Name != "BenchmarkB" {
		t.Fatalf("merged to %+v", got)
	}
	a := got[0]
	if a.NsPerOp != 200 || *a.BytesPerOp != 8 || *a.AllocsPerOp != 620 || a.Metrics["events/sec"] != 7 {
		t.Errorf("BenchmarkA = %v ns/op, %v B/op, %v allocs/op, %v; want 200, 8, 620 and the 200 ns run's metrics",
			a.NsPerOp, *a.BytesPerOp, *a.AllocsPerOp, a.Metrics)
	}
}
