package mapreduce

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybridmr/internal/apps"
	"hybridmr/internal/faults"
	"hybridmr/internal/storage"
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
// multiply — and is computed from the healthy platform, so it equals the
// one view with the summed levels in every value planning reads and in its
// name. Storage loss on a throttled view keeps the throttle.
func TestViewOfView(t *testing.T) {
	for _, p := range viewPlatforms(t) {
		first, err := p.View(1, 0, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if same, err := first.View(0, 0, 1, 1); err != nil || same != first {
			t.Errorf("%s: unit view of a view did not return the receiver: %v", p.Name, err)
		}
		second, err := first.View(0, 0, 1.5, 4)
		if err != nil {
			t.Fatal(err)
		}
		third, err := second.View(0, 1, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		once, err := p.View(1, 1, 3, 4)
		if err != nil {
			t.Fatal(err)
		}
		if third.Name != once.Name || third.FS.Name() != once.FS.Name() {
			t.Errorf("%s: view of a view named %q on %q, want %q on %q",
				p.Name, third.Name, third.FS.Name(), once.Name, once.FS.Name())
		}
		if got, want := describeView(third), describeView(once); got != want {
			t.Errorf("%s: view of a view\n got %s\nwant %s", p.Name, got, want)
		}
	}
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
