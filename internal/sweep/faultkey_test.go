package sweep

import (
	"testing"

	"hybridmr/internal/faults"
	"hybridmr/internal/mapreduce"
	"hybridmr/internal/units"
)

// A faulted probe never aliases a clean entry, and distinct schedules never
// alias each other — the composition guarantee the fault layer relies on.
func TestFaultKeyNeverAliasesClean(t *testing.T) {
	p, err := mapreduce.NewArch(mapreduce.UpOFS, cal())
	if err != nil {
		t.Fatal(err)
	}
	job := mapreduce.Job{ID: "j", App: wordcount(), Input: units.GB}
	clean := KeyFor(p, job, 0)
	demoFP := faults.Demo().Fingerprint()
	faulted := KeyFor(p, job, demoFP)
	if clean == faulted {
		t.Fatal("faulted key aliases the clean key")
	}
	other, err := faults.NewSchedule([]faults.Event{
		{At: 0, Kind: faults.MachineCrash, Cluster: faults.ClusterUp, Count: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if KeyFor(p, job, other.Fingerprint()) == faulted {
		t.Error("distinct schedules alias each other")
	}
}

// Degraded platform views get distinct keys even under the same schedule:
// the platform name, spec and FS name all change.
func TestFaultKeySeparatesDegradedViews(t *testing.T) {
	p, err := mapreduce.NewArch(mapreduce.OutOFS, cal())
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.View(3, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	job := mapreduce.Job{ID: "j", App: wordcount(), Input: units.GB}
	fp := faults.Demo().Fingerprint()
	if KeyFor(p, job, fp) == KeyFor(d, job, fp) {
		t.Error("healthy and degraded views share a key")
	}

	// And the memoized faulted run caches exactly once per (view, schedule).
	c := NewCache()
	r1 := c.RunIsolated(d, job, fp)
	r2 := c.RunIsolated(d, job, fp)
	if r1.Exec != r2.Exec {
		t.Error("faulted memoization not stable")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	if rc := c.RunIsolated(d, job, 0); rc.Exec != r1.Exec {
		t.Error("same view under clean key computed a different result")
	}
	if c.Len() != 2 {
		t.Errorf("cache has %d entries, want 2 (clean + faulted)", c.Len())
	}
}
