package mapreduce

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"hybridmr/internal/apps"
	"hybridmr/internal/cluster"
	"hybridmr/internal/storage"
	"hybridmr/internal/units"
)

func TestArchNames(t *testing.T) {
	want := map[Arch]string{UpOFS: "up-OFS", UpHDFS: "up-HDFS", OutOFS: "out-OFS", OutHDFS: "out-HDFS"}
	for a, name := range want {
		if a.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), name)
		}
		p, err := NewArch(a, DefaultCalibration())
		if err != nil {
			t.Fatalf("NewArch(%s): %v", name, err)
		}
		if p.Name != name {
			t.Errorf("platform name = %q, want %q", p.Name, name)
		}
	}
	if len(Arches()) != 4 {
		t.Errorf("Arches() = %v", Arches())
	}
	if !strings.HasPrefix(Arch(9).String(), "Arch(") {
		t.Error("unknown arch string")
	}
	if _, err := NewArch(Arch(9), DefaultCalibration()); err == nil {
		t.Error("NewArch(9) succeeded")
	}
}

func TestMustArchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustArch(bad) did not panic")
		}
	}()
	MustArch(Arch(42), DefaultCalibration())
}

func TestArchFileSystems(t *testing.T) {
	cal := DefaultCalibration()
	if fs := MustArch(UpOFS, cal).FS.Name(); fs != "OFS" {
		t.Errorf("up-OFS file system = %s", fs)
	}
	if fs := MustArch(UpHDFS, cal).FS.Name(); fs != "HDFS" {
		t.Errorf("up-HDFS file system = %s", fs)
	}
	if n := MustArch(UpOFS, cal).Spec.Machines; n != 2 {
		t.Errorf("up cluster machines = %d, want 2", n)
	}
	if n := MustArch(OutOFS, cal).Spec.Machines; n != 12 {
		t.Errorf("out cluster machines = %d, want 12", n)
	}
}

func TestBaselinePlatforms(t *testing.T) {
	th, err := NewTHadoop(DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	if th.Spec.Machines != 24 || th.FS.Name() != "HDFS" {
		t.Errorf("THadoop = %d machines on %s, want 24 on HDFS", th.Spec.Machines, th.FS.Name())
	}
	rh, err := NewRHadoop(DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	if rh.Spec.Machines != 24 || rh.FS.Name() != "OFS" {
		t.Errorf("RHadoop = %d machines on %s, want 24 on OFS", rh.Spec.Machines, rh.FS.Name())
	}
}

func TestNewPlatformValidation(t *testing.T) {
	cal := DefaultCalibration()
	ok := MustArch(UpOFS, cal)
	if _, err := NewPlatform("", ok.Spec, ok.FS, cal); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewPlatform("x", ok.Spec, nil, cal); err == nil {
		t.Error("nil FS accepted")
	}
	bad := ok.Spec
	bad.Machines = 0
	if _, err := NewPlatform("x", bad, ok.FS, cal); err == nil {
		t.Error("invalid spec accepted")
	}
	badCal := cal
	badCal.BlockSize = 0
	if _, err := NewPlatform("x", ok.Spec, ok.FS, badCal); err == nil {
		t.Error("invalid calibration accepted")
	}
}

func TestJobValidation(t *testing.T) {
	good := Job{ID: "j", App: apps.Grep(), Input: units.GB}
	if err := good.Validate(); err != nil {
		t.Fatalf("good job invalid: %v", err)
	}
	cases := []Job{
		{ID: "j", App: apps.Grep(), Input: 0},
		{ID: "j", App: apps.Grep(), Input: -units.GB},
		{ID: "j", App: apps.Profile{}, Input: units.GB},
		{ID: "j", App: apps.Grep(), Input: units.GB, Submit: -time.Second},
		{ID: "j", App: apps.Grep(), Input: units.GB, Reducers: -1},
	}
	for i, j := range cases {
		if err := j.Validate(); err == nil {
			t.Errorf("case %d: Validate succeeded", i)
		}
	}
	if r := MustArch(OutOFS, DefaultCalibration()).RunIsolated(cases[0]); r.Err == nil {
		t.Error("RunIsolated accepted invalid job")
	}
}

// An input at the top of the int64 range (8 EiB) does not fit the 256 TB
// of any architecture: block counts, scaled sizes and the capacity check
// must not wrap around into a one-task plan.
func TestHugeInputRejected(t *testing.T) {
	cal := DefaultCalibration()
	for _, a := range Arches() {
		p := MustArch(a, cal)
		for _, app := range []apps.Profile{apps.Grep(), apps.DFSIOWrite()} {
			job := Job{ID: "huge", App: app, Input: math.MaxInt64}
			_, err := p.planJob(job)
			var ce *storage.CapacityError
			if !errors.As(err, &ce) {
				t.Errorf("%s %s at %v: err = %v, want a *storage.CapacityError", a, app.Name, job.Input, err)
			}
		}
	}
}

// The simulator stores task IDs as int32, and reduce IDs follow the map
// IDs, so a plan whose last ID (mapTasks+reducers-1) does not fit is
// rejected by name instead of queueing truncated IDs. Checked at planning
// level only: no such replay runs.
func TestMapTasksAboveInt32Rejected(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	for _, c := range []struct {
		maps, reducers int
		ok             bool
	}{
		{math.MaxInt32 + 1, 1, false},
		{math.MaxInt32, 1, true}, // the one reduce ID is MaxInt32
		{math.MaxInt32, 2, false},
		{1 << 30, 1 << 30, true},
		{1 << 30, 1<<30 + 1, false},
		{1, math.MaxInt64, false},
	} {
		job := Job{ID: "many-files", App: apps.Grep(), Input: units.GB, MapTasks: c.maps, Reducers: c.reducers}
		_, err := p.planJob(job)
		switch {
		case c.ok && err != nil:
			t.Errorf("planJob with %d maps + %d reducers rejected: %v", c.maps, c.reducers, err)
		case !c.ok && (err == nil || !strings.Contains(err.Error(), "many-files")):
			t.Errorf("planJob with %d maps + %d reducers: err = %v, want an error naming the job", c.maps, c.reducers, err)
		case !c.ok && p.RunIsolated(job).Err == nil:
			t.Errorf("RunIsolated accepted %d maps + %d reducers", c.maps, c.reducers)
		}
	}
}

func TestTinyJob(t *testing.T) {
	p := MustArch(UpOFS, DefaultCalibration())
	r := p.RunIsolated(Job{ID: "tiny", App: apps.Wordcount(), Input: 10 * units.KB})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.MapTasks != 1 || r.MapWaves != 1 || r.Reducers != 1 {
		t.Errorf("tiny job layout: %d tasks, %d waves, %d reducers", r.MapTasks, r.MapWaves, r.Reducers)
	}
	if r.Exec <= 0 {
		t.Error("non-positive execution time")
	}
	// A KB job is dominated by fixed costs; it must be far below a 1 GB
	// run but still cost several seconds of overheads.
	big := p.RunIsolated(Job{ID: "gb", App: apps.Wordcount(), Input: units.GB})
	if r.Exec >= big.Exec {
		t.Errorf("10KB exec %v not below 1GB exec %v", r.Exec, big.Exec)
	}
	if r.Exec < 2*time.Second {
		t.Errorf("10KB exec %v implausibly free of overheads", r.Exec)
	}
}

func TestExplicitReducers(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	job := Job{ID: "j", App: apps.Wordcount(), Input: 8 * units.GB, Reducers: 3}
	r := p.RunIsolated(job)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Reducers != 3 {
		t.Errorf("reducers = %d, want 3", r.Reducers)
	}
}

// Reduce waves: more reducers than slots means several reduce waves.
func TestReduceWaves(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration()) // 24 reduce slots
	one := p.RunIsolated(Job{ID: "j", App: apps.Wordcount(), Input: 8 * units.GB, Reducers: 24})
	two := p.RunIsolated(Job{ID: "j", App: apps.Wordcount(), Input: 8 * units.GB, Reducers: 25})
	if one.Err != nil || two.Err != nil {
		t.Fatal(one.Err, two.Err)
	}
	if two.ReducePhase <= one.ReducePhase {
		t.Errorf("25 reducers on 24 slots (%v) not slower than 24 (%v)", two.ReducePhase, one.ReducePhase)
	}
}

func TestResultString(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	r := p.RunIsolated(Job{ID: "j1", App: apps.Grep(), Input: units.GB})
	s := r.String()
	if !strings.Contains(s, "j1") || !strings.Contains(s, "out-OFS") {
		t.Errorf("Result.String = %q", s)
	}
	bad := p.RunIsolated(Job{ID: "j2", App: apps.Grep(), Input: 0})
	if !strings.Contains(bad.String(), "error") {
		t.Errorf("error Result.String = %q", bad.String())
	}
}

func TestCalibrationValidate(t *testing.T) {
	if err := DefaultCalibration().Validate(); err != nil {
		t.Fatalf("default calibration invalid: %v", err)
	}
	mut := func(f func(*Calibration)) Calibration {
		c := DefaultCalibration()
		f(&c)
		return c
	}
	bad := []struct {
		name string
		cal  Calibration
	}{
		{"block", mut(func(c *Calibration) { c.BlockSize = 0 })},
		{"startup", mut(func(c *Calibration) { c.TaskStartup = -time.Second })},
		{"read duty", mut(func(c *Calibration) { c.ReadDuty = 0 })},
		{"write duty", mut(func(c *Calibration) { c.WriteDuty = 1.5 })},
		{"shuffle duty", mut(func(c *Calibration) { c.ShuffleWriteDuty = 0 })},
		{"heap frac", mut(func(c *Calibration) { c.HeapShuffleFraction = 2 })},
		{"bytes per reducer", mut(func(c *Calibration) { c.BytesPerReducer = 0 })},
		{"spill passes", mut(func(c *Calibration) { c.SpillPasses = -1 })},
		{"shuffle latency", mut(func(c *Calibration) { c.ShuffleLatency = -time.Second })},
	}
	for _, tt := range bad {
		if err := tt.cal.Validate(); err == nil {
			t.Errorf("%s: Validate succeeded", tt.name)
		}
	}
}

// The page-cache budget: scale-up machines keep ≈13 GB per node, scale-out
// machines keep none.
func TestPageCacheBudget(t *testing.T) {
	up := cluster.ScaleUp2()
	budget := pageCacheBudget(up.Machine, up)
	if budget < 10*units.GB || budget > 20*units.GB {
		t.Errorf("scale-up page cache budget = %v, want ≈13GB", budget)
	}
	out := cluster.ScaleOut12()
	if b := pageCacheBudget(out.Machine, out); b != 0 {
		t.Errorf("scale-out page cache budget = %v, want 0", b)
	}
}
