package mapreduce

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"hybridmr/internal/apps"
	"hybridmr/internal/faults"
	"hybridmr/internal/storage"
	"hybridmr/internal/storage/hdfs"
	"hybridmr/internal/storage/ofs"
	"hybridmr/internal/units"
)

var updateViews = flag.Bool("update", false, "rewrite testdata/views.golden")

// viewPlatforms returns the four Table I architectures and the two trace
// baselines.
func viewPlatforms(t *testing.T) []*Platform {
	t.Helper()
	cal := DefaultCalibration()
	var ps []*Platform
	for _, a := range Arches() {
		ps = append(ps, MustArch(a, cal))
	}
	for _, build := range []func(Calibration) (*Platform, error){NewTHadoop, NewRHadoop} {
		p, err := build(cal)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	return ps
}

// describeView prints everything planning reads of a view: every spec field,
// the usable capacity, per-task read/write bandwidth under a light and a
// cluster-filling access context, and one Wordcount job's isolated exec time.
func describeView(v *Platform) string {
	spec := v.Spec
	light := storage.AccessContext{
		ActiveTasks: 4, TasksPerNode: 2, Nodes: 2,
		NodeNIC: spec.Machine.NICBW, NodeDiskBW: spec.Machine.DiskBW,
		DatasetBytes: 2 * units.GB, ReadDuty: 0.5, WriteDuty: 0.5,
	}
	full := storage.AccessContext{
		ActiveTasks: spec.MapSlots(), TasksPerNode: spec.MapSlotsPerMachine(), Nodes: spec.Machines,
		NodeNIC: spec.Machine.NICBW, NodeDiskBW: spec.Machine.DiskBW,
		DatasetBytes: 64 * units.GB, ReadDuty: 1, WriteDuty: 0.8,
	}
	capacity := v.FS.(interface{ UsableCapacity() units.Bytes }).UsableCapacity()
	r := v.RunIsolated(Job{ID: "wc", App: apps.Wordcount(), Input: 8 * units.GB})
	return fmt.Sprintf("spec=%+v cap=%d read=%g/%g write=%g/%g exec=%d err=%v",
		spec, int64(capacity),
		float64(v.FS.PerTaskReadBW(light)), float64(v.FS.PerTaskReadBW(full)),
		float64(v.FS.PerTaskWriteBW(light)), float64(v.FS.PerTaskWriteBW(full)),
		int64(r.Exec), r.Err)
}

// The planning view of every platform over a grid of machine losses,
// storage losses and nic/rack factors is pinned value for value in
// testdata/views.golden, and the views' names never alias one another.
func TestViewTable(t *testing.T) {
	type level struct{ nic, rack float64 }
	gray := []level{{1, 1}, {2, 1}, {1, 4}, {2, 4}, {1.5, 3}}
	var b strings.Builder
	names := map[string]string{}
	for _, p := range viewPlatforms(t) {
		for _, m := range []int{0, 1, p.Spec.Machines} {
			for _, s := range []int{0, 1, 4} {
				for _, g := range gray {
					row := fmt.Sprintf("%s m=%d s=%d nic=%g rack=%g", p.Name, m, s, g.nic, g.rack)
					v, err := p.View(m, s, g.nic, g.rack)
					if err != nil {
						fmt.Fprintf(&b, "%s: error: %v\n", row, err)
						continue
					}
					fmt.Fprintf(&b, "%s: %s\n", row, describeView(v))
					if prev, ok := names[v.Name]; ok {
						t.Errorf("views %q and %q share the name %q", prev, row, v.Name)
					}
					names[v.Name] = row
				}
			}
		}
	}
	path := filepath.Join("testdata", "views.golden")
	if *updateViews {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(got), len(wantLines)) {
		g, w := "<missing>", "<missing>"
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("views.golden line %d:\n got %s\nwant %s", i+1, g, w)
		}
	}
}

// A view of a view adds its levels to the receiver's — losses add, factors
// multiply — and is computed from the healthy platform, so on every platform
// View(a).View(b) equals View(a+b) in its name, spec, file-system
// configuration and every value planning reads, and where one side is
// rejected both are. Platform.View is the only code that combines levels;
// each file system's View sees the summed levels on the healthy system.
func TestViewOfView(t *testing.T) {
	factors := []float64{1, 1.25, 1.5, 2, 3, 4}
	for _, p := range viewPlatforms(t) {
		level := func(m, s, nic, rack uint8) viewLevel {
			return viewLevel{
				machines: int(m) % (p.Spec.Machines + 1),
				storage:  int(s) % 34, // past OFS's 32 servers and every datanode count
				nic:      factors[int(nic)%len(factors)],
				rack:     factors[int(rack)%len(factors)],
			}
		}
		prop := func(m1, s1, n1, r1, m2, s2, n2, r2 uint8) bool {
			a, b := level(m1, s1, n1, r1), level(m2, s2, n2, r2)
			twice, err := p.View(a.machines, a.storage, a.nic, a.rack)
			if err == nil {
				if same, err := twice.View(0, 0, 1, 1); err != nil || same != twice {
					t.Errorf("%s: unit view of %s did not return the receiver: %v", p.Name, twice.Name, err)
					return false
				}
				twice, err = twice.View(b.machines, b.storage, b.nic, b.rack)
			}
			once, onceErr := p.View(a.machines+b.machines, a.storage+b.storage, a.nic*b.nic, a.rack*b.rack)
			if (err == nil) != (onceErr == nil) {
				t.Errorf("%s: %+v then %+v: view of a view err %v, one view err %v", p.Name, a, b, err, onceErr)
				return false
			}
			if err != nil {
				return true
			}
			got := fmt.Sprintf("%s fs=%s %s", twice.Name, fsConfig(twice.FS), describeView(twice))
			want := fmt.Sprintf("%s fs=%s %s", once.Name, fsConfig(once.FS), describeView(once))
			if got != want {
				t.Errorf("%s: %+v then %+v:\n got %s\nwant %s", p.Name, a, b, got, want)
				return false
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
			t.Error(err)
		}
	}
}

// fsConfig prints a file system's whole configuration.
func fsConfig(fs storage.System) string {
	switch fs := fs.(type) {
	case *hdfs.System:
		return fmt.Sprintf("%+v", fs.Config())
	case *ofs.System:
		return fmt.Sprintf("%+v", fs.Config())
	}
	return fmt.Sprintf("unknown %T", fs)
}

// The view's levels are validated once, at Platform.View: negative losses
// and factors below 1, infinite or NaN are errors on every axis.
func TestViewRejectsBadLevels(t *testing.T) {
	p := MustArch(OutOFS, DefaultCalibration())
	nan, inf := math.NaN(), math.Inf(1)
	for _, bad := range []struct {
		m, s      int
		nic, rack float64
	}{
		{-1, 0, 1, 1}, {0, -1, 1, 1},
		{0, 0, 0.5, 1}, {0, 0, 0, 1}, {0, 0, nan, 1}, {0, 0, inf, 1}, {0, 0, -inf, 1},
		{0, 0, 1, 0.5}, {0, 0, 1, 0}, {0, 0, 1, nan}, {0, 0, 1, inf}, {0, 0, 1, -inf},
	} {
		if v, err := p.View(bad.m, bad.s, bad.nic, bad.rack); err == nil {
			t.Errorf("View(%d, %d, %v, %v) accepted as %s", bad.m, bad.s, bad.nic, bad.rack, v.Name)
		}
	}
}

// Storage fault events are matched to the platform by file-system type, not
// by display name: a simulator built on a nic-throttled OFS view still loses
// servers on an OFS event, and a throttled HDFS view still ignores it.
func TestViewKeepsStorageFaults(t *testing.T) {
	loss := []faults.Event{{At: 0, Kind: faults.OFSServerDown, Cluster: faults.ClusterAll, Count: 4}}
	job := Job{ID: "j", App: apps.Grep(), Input: 8 * units.GB}
	for _, tc := range []struct {
		arch Arch
		down int
	}{{OutOFS, 4}, {OutHDFS, 0}} {
		view, err := MustArch(tc.arch, DefaultCalibration()).View(0, 0, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		sim := newTestSim(t, view, Config{Faults: loss})
		sim.Submit(job)
		sim.drain()
		if got := sim.StorageDown(); got != tc.down {
			t.Errorf("%s: StorageDown = %d after an OFS server-down event, want %d", view.Name, got, tc.down)
		}
	}
}
