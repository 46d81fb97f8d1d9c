package simlint_test

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"hybridmr/internal/simlint"
)

// budgetCoverage is the bridge between the static and the runtime halves of
// the zero-alloc contract: every //simlint:hotpath-marked function must be
// claimed by the AllocsPerRun budget test that measures its call graph. The
// map is package directory → budget test name → marked functions that test
// exercises. Adding a hotpath marker without registering it here — or
// registering it under a test that does not exist or does not call
// AllocsPerRun — fails TestHotpathMarkersHaveAllocBudgets, so static
// annotations cannot drift away from measured budgets.
var budgetCoverage = map[string]map[string][]string{
	"../simclock": {
		// After+Step against a standing 64-event backlog drives the guard
		// and both sift directions.
		"TestEngineAfterSteadyStateAllocs": {
			"Engine.After", "Engine.Step", "Engine.guard",
			"Engine.siftUp", "Engine.siftDown",
		},
		"TestEngineAtSteadyStateAllocs": {"Engine.At"},
	},
	"../stats": {
		"TestSamplerSteadyStateAllocs": {"RNG.Float64", "LogUniformVar.Sample"},
	},
	"../sweep": {
		// Clean and faulted KeyFor probes on healthy, degraded and
		// gray-throttled platform views.
		"TestKeyForSteadyStateAllocs": {"KeyFor"},
	},
	"../mapreduce": {
		// A clean warm trace replay runs the whole scheduling kernel:
		// submission/arrival, dispatch, ready-set ladder and task heaps,
		// job-run pool, attempt arming, and completion into the result sink.
		"TestPooledReplaySteadyStateAllocs": {
			"Simulator.Submit", "Simulator.nextArrival",
			"Simulator.startJob", "Simulator.dispatch", "Simulator.touch",
			"Simulator.removeActive", "Simulator.startMapTask",
			"Simulator.mapTaskDone", "Simulator.startReduceTask",
			"Simulator.redTaskDone", "Simulator.completeJob",
			"Simulator.finish",
			"Simulator.newJobRun", "Simulator.recycleJob", "Simulator.stackDrop",
			"Simulator.addAttempt", "Simulator.removeAttempt",
			"Simulator.recycleAttempt", "Simulator.armAttempt",
			"Simulator.graySlow", "Simulator.jitterDuration",
			"jobRun.pendingLen", "jobRun.popTask", "jobRun.pushTask",
			"jobRun.runningOf", "jobRun.setupDone", "jobRun.shuffleFire",
			"readySet.key", "readySet.pick", "readySet.set",
			"readySet.listInsert", "readySet.listRemove", "readySet.heapPush",
			"readySet.heapRekey", "readySet.heapFlush", "readySet.heapUp",
			"readySet.heapDown", "readySet.heapRemove",
		},
		// The faulted replay adds the failure/straggler machinery: attempt
		// kills and retries (re-queued through the task slab), jitter draws,
		// speculation.
		"TestFaultedReplaySteadyStateAllocs": {
			"Simulator.attemptFails", "Simulator.retireFailed",
			"Simulator.stackPush", "Simulator.stackPop", "attempt.fire",
		},
	},
}

// TestHotpathMarkersHaveAllocBudgets cross-checks the marker set against
// budgetCoverage in both directions and verifies each claimed budget test
// exists (and measures with AllocsPerRun) in its package's test files.
func TestHotpathMarkersHaveAllocBudgets(t *testing.T) {
	for dir, tests := range budgetCoverage {
		marked, err := simlint.MarkedHotpaths(dir)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		claimed := make(map[string]string) // function -> claiming test
		for testName, fns := range tests {
			for _, fn := range fns {
				if prev, dup := claimed[fn]; dup {
					t.Errorf("%s: %s claimed by both %s and %s", dir, fn, prev, testName)
				}
				claimed[fn] = testName
			}
		}
		markedSet := make(map[string]bool, len(marked))
		for _, fn := range marked {
			markedSet[fn] = true
			if claimed[fn] == "" {
				t.Errorf("%s: %s carries //simlint:hotpath but no AllocsPerRun budget test claims it; register it in budgetCoverage with the test that measures it", dir, fn)
			}
		}
		for fn, testName := range claimed {
			if !markedSet[fn] {
				t.Errorf("%s: budgetCoverage lists %s under %s but the function is not //simlint:hotpath-marked (renamed or unmarked?)", dir, fn, testName)
			}
		}
		for testName := range tests {
			if err := budgetTestExists(dir, testName); err != nil {
				t.Errorf("%s: %v", dir, err)
			}
		}
	}

	// Completeness of the map itself: every package that carries hotpath
	// markers anywhere in the tree must appear in budgetCoverage.
	for _, dir := range packagesWithMarkers(t) {
		if _, ok := budgetCoverage[dir]; !ok {
			t.Errorf("%s carries //simlint:hotpath markers but has no budgetCoverage entry", dir)
		}
	}
}

// budgetTestExists checks that the named test function is declared in one of
// the package's _test.go files and that the file measures with AllocsPerRun.
func budgetTestExists(dir, testName string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	decl := regexp.MustCompile(`(?m)^func ` + regexp.QuoteMeta(testName) + `\(t \*testing\.T\)`)
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		if !decl.Match(src) {
			continue
		}
		if !strings.Contains(string(src), "AllocsPerRun") {
			return fmt.Errorf("%s declares %s but never calls testing.AllocsPerRun", e.Name(), testName)
		}
		return nil
	}
	return fmt.Errorf("budget test %s not found in any _test.go file", testName)
}

// packagesWithMarkers scans the module's internal packages for hotpath
// markers, returning their directories relative to this package.
func packagesWithMarkers(t *testing.T) []string {
	t.Helper()
	root := ".."
	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	fset := token.NewFileSet()
	for _, e := range ents {
		if !e.IsDir() || e.Name() == "simlint" {
			continue
		}
		dir := filepath.Join(root, e.Name())
		names, err := simlint.GoFiles(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if text == "simlint:hotpath" || strings.HasPrefix(text, "simlint:hotpath ") {
						found = true
					}
				}
			}
			if found {
				out = append(out, dir)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}
