package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// runDiff implements the -diff mode: it loads the old and new reports with
// load, compares the gated benchmarks, and returns a human-readable delta
// table (ns/op and allocs/op, which gate, and B/op, which is only reported)
// plus whether any benchmark regressed beyond tolerance. names selects
// the gate set; empty gates every benchmark present in both reports. A name
// explicitly listed but absent from either report is an error — a gate that
// silently stops measuring is indistinguishable from one that passes.
func runDiff(args []string, nsTol, allocTol float64, load func(string) (Report, error)) (out string, failed bool, err error) {
	if len(args) < 2 {
		return "", false, fmt.Errorf("-diff needs old.json and new.json")
	}
	oldRep, err := load(args[0])
	if err != nil {
		return "", false, err
	}
	newRep, err := load(args[1])
	if err != nil {
		return "", false, err
	}
	oldBy := byName(oldRep.Benchmarks)
	newBy := byName(newRep.Benchmarks)

	names := args[2:]
	if len(names) == 0 {
		for _, b := range oldRep.Benchmarks {
			if _, ok := newBy[b.Name]; ok {
				names = append(names, b.Name)
			}
		}
		if len(names) == 0 {
			return "", false, fmt.Errorf("no common benchmarks between %s and %s", args[0], args[1])
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "%-44s %14s %14s %8s\n", "benchmark", "old", "new", "delta")
	for _, name := range names {
		ob, ok := oldBy[name]
		if !ok {
			return "", false, fmt.Errorf("benchmark %s missing from %s", name, args[0])
		}
		nb, ok := newBy[name]
		if !ok {
			return "", false, fmt.Errorf("benchmark %s missing from %s", name, args[1])
		}
		nsDelta := pctDelta(ob.NsPerOp, nb.NsPerOp)
		mark := ""
		if nsDelta > nsTol {
			mark = fmt.Sprintf("  REGRESSION (> %+.0f%% ns/op)", nsTol)
			failed = true
		}
		fmt.Fprintf(&sb, "%-44s %12.0fns %12.0fns %+7.1f%%%s\n", name, ob.NsPerOp, nb.NsPerOp, nsDelta, mark)
		if ob.AllocsPerOp != nil && nb.AllocsPerOp != nil {
			aDelta := pctDelta(*ob.AllocsPerOp, *nb.AllocsPerOp)
			mark = ""
			if aDelta > allocTol {
				mark = fmt.Sprintf("  REGRESSION (> %+.0f%% allocs/op)", allocTol)
				failed = true
			}
			fmt.Fprintf(&sb, "%-44s %14.0f %14.0f %+7.1f%%%s\n", name+" [allocs]", *ob.AllocsPerOp, *nb.AllocsPerOp, aDelta, mark)
		}
		// Bytes are reported, never gated: a fall shows what an allocation
		// change bought, and a rise is visible without failing the gate.
		if ob.BytesPerOp != nil && nb.BytesPerOp != nil {
			fmt.Fprintf(&sb, "%-44s %14.0f %14.0f %+7.1f%%\n", name+" [B/op]", *ob.BytesPerOp, *nb.BytesPerOp, pctDelta(*ob.BytesPerOp, *nb.BytesPerOp))
		}
	}
	if failed {
		sb.WriteString("FAIL: benchmark regression\n")
	} else {
		sb.WriteString("ok: no benchmark regressions\n")
	}
	return sb.String(), failed, nil
}

// pctDelta is the relative change from old to new in percent; positive means
// new is worse (slower, more allocations).
func pctDelta(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return 100
	}
	return (new - old) / old * 100
}

func byName(bs []Benchmark) map[string]Benchmark {
	m := make(map[string]Benchmark, len(bs))
	for _, b := range bs {
		m[b.Name] = b
	}
	return m
}

// readReport loads one BENCH_*.json document.
func readReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}
