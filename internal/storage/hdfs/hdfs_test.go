package hdfs

import (
	"errors"
	"testing"
	"testing/quick"

	"hybridmr/internal/storage"
	"hybridmr/internal/units"
)

func upConfig() Config {
	// The paper's scale-up cluster: 2 machines, 91 GB disk each.
	return DefaultConfig(2, 91*units.GB, units.MBps(100))
}

func outConfig() Config {
	// The paper's scale-out cluster: 12 machines, 193 GB disk each.
	return DefaultConfig(12, 193*units.GB, units.MBps(100))
}

func ctx(active, perNode, nodes int) storage.AccessContext {
	return storage.AccessContext{
		ActiveTasks:  active,
		TasksPerNode: perNode,
		Nodes:        nodes,
		NodeNIC:      units.GBps(1.25),
		NodeDiskBW:   units.MBps(100),
		ReadDuty:     0.35,
		WriteDuty:    0.25,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(upConfig()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mut := func(f func(*Config)) Config {
		c := upConfig()
		f(&c)
		return c
	}
	bad := []struct {
		name string
		cfg  Config
	}{
		{"no datanodes", mut(func(c *Config) { c.Datanodes = 0 })},
		{"no capacity", mut(func(c *Config) { c.DiskCapacity = 0 })},
		{"no disk bw", mut(func(c *Config) { c.DiskBW = 0 })},
		{"no block size", mut(func(c *Config) { c.BlockSize = 0 })},
		{"zero replication", mut(func(c *Config) { c.Replication = 0 })},
		{"reserve 1", mut(func(c *Config) { c.Reserve = 1 })},
		{"negative reserve", mut(func(c *Config) { c.Reserve = -0.1 })},
		{"no stream", mut(func(c *Config) { c.StreamBW = 0 })},
		{"bad locality", mut(func(c *Config) { c.NonLocalFraction = 1.5 })},
	}
	for _, tt := range bad {
		if _, err := New(tt.cfg); err == nil {
			t.Errorf("%s: New succeeded, want error", tt.name)
		}
	}
}

// The paper's up-HDFS "cannot process the jobs with input data size greater
// than 80GB" (§III-A) — our capacity model reproduces that limit.
func TestUpHDFSCapacityLimit(t *testing.T) {
	s, err := New(upConfig())
	if err != nil {
		t.Fatal(err)
	}
	usable := s.UsableCapacity()
	if usable < 78*units.GB || usable > 84*units.GB {
		t.Errorf("up-HDFS usable capacity = %v, want ≈80GB", usable)
	}
	if err := s.CheckJobFit(64*units.GB, 2*units.GB); err != nil {
		t.Errorf("64GB job should fit: %v", err)
	}
	err = s.CheckJobFit(128*units.GB, 0)
	if !errors.Is(err, storage.ErrCapacity) {
		t.Errorf("128GB job error = %v, want ErrCapacity", err)
	}
	var ce *storage.CapacityError
	if !errors.As(err, &ce) || *ce != (storage.CapacityError{FS: "hdfs", Need: 128 * units.GB, Usable: usable}) {
		t.Errorf("128GB job error = %#v, want a *CapacityError for 128GB of %v", err, usable)
	}
	if got, want := err.Error(), "hdfs: job needs 128.0GB of 81.9GB usable: storage: dataset exceeds file system capacity"; got != want {
		t.Errorf("128GB job error text = %q, want %q", got, want)
	}
}

func TestOutHDFSCapacity(t *testing.T) {
	s, err := New(outConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 12 × 193 GB × 0.9 / 2 ≈ 1042 GB usable.
	if err := s.CheckJobFit(448*units.GB, 45*units.GB); err != nil {
		t.Errorf("448GB job should fit on out-HDFS: %v", err)
	}
}

// A lone reader gets the full stream; heavy per-node concurrency shares the
// disk.
func TestPerTaskReadBWContention(t *testing.T) {
	s, _ := New(outConfig())
	solo := s.PerTaskReadBW(ctx(1, 1, 12))
	if solo > units.MBps(100) || solo < units.MBps(80) {
		t.Errorf("solo read BW = %v, want ≈100MB/s (stream-capped, small non-local blend)", solo)
	}
	busy := s.PerTaskReadBW(ctx(72, 6, 12))
	if busy >= solo {
		t.Errorf("contended read BW %v not below solo %v", busy, solo)
	}
	// 6 tasks × 0.35 duty = 2.1 effective readers → ≈48 MB/s.
	if busy < units.MBps(35) || busy > units.MBps(60) {
		t.Errorf("contended read BW = %v, want ≈48MB/s", busy)
	}
}

// Scale-up HDFS at full occupancy is severely disk-bound: 18 tasks on one
// disk. This is why the paper's up-HDFS is the worst architecture for large
// jobs.
func TestScaleUpReadContentionSevere(t *testing.T) {
	s, _ := New(upConfig())
	bw := s.PerTaskReadBW(ctx(36, 18, 2))
	if bw > units.MBps(20) {
		t.Errorf("up-HDFS contended read = %v, want < 20MB/s", bw)
	}
}

// Writes pay the replication pipeline: at the same concurrency, write BW is
// below read BW.
func TestWriteBelowRead(t *testing.T) {
	s, _ := New(outConfig())
	for _, c := range []storage.AccessContext{ctx(1, 1, 12), ctx(72, 6, 12)} {
		r, w := s.PerTaskReadBW(c), s.PerTaskWriteBW(c)
		if w >= r {
			t.Errorf("write BW %v not below read BW %v at %+v", w, r, c)
		}
	}
}

// Replication 1 writes faster than replication 2 under identical load.
func TestReplicationSlowsWrites(t *testing.T) {
	c1, c2 := outConfig(), outConfig()
	c1.Replication = 1
	s1, _ := New(c1)
	s2, _ := New(c2)
	a := ctx(72, 6, 12)
	if s1.PerTaskWriteBW(a) <= s2.PerTaskWriteBW(a) {
		t.Error("replication-1 writes should beat replication-2 writes")
	}
}

func TestLatenciesAndOverhead(t *testing.T) {
	s, _ := New(outConfig())
	if s.TaskReadLatency() <= 0 || s.TaskWriteLatency() <= 0 || s.JobOverhead() <= 0 {
		t.Error("latencies must be positive")
	}
	if s.Name() != "HDFS" {
		t.Errorf("Name = %q", s.Name())
	}
	if s.Config().Replication != 2 {
		t.Errorf("paper replication factor = %d, want 2", s.Config().Replication)
	}
	if s.Config().BlockSize != 128*units.MB {
		t.Errorf("paper block size = %v, want 128MB", s.Config().BlockSize)
	}
}

// Property: read bandwidth is monotone non-increasing in per-node
// concurrency and always positive.
func TestReadBWMonotoneProperty(t *testing.T) {
	s, _ := New(outConfig())
	f := func(aRaw, bRaw uint8) bool {
		a := int(aRaw%32) + 1
		b := int(bRaw%32) + 1
		if a > b {
			a, b = b, a
		}
		bwA := s.PerTaskReadBW(ctx(a*12, a, 12))
		bwB := s.PerTaskReadBW(ctx(b*12, b, 12))
		return bwA > 0 && bwB > 0 && bwB <= bwA
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPlacementInvariants(t *testing.T) {
	p, err := NewPlacement(12, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 500 blocks written round-robin from all nodes, as the engine store
	// writes them.
	per := make([]int, 12)
	for i := 0; i < 500; i++ {
		locs := p.Place(i, i%12)
		if len(locs) != 2 {
			t.Fatalf("block %d has %d replicas, want 2", i, len(locs))
		}
		if locs[0] == locs[1] {
			t.Fatalf("block %d replicas on the same node %d", i, locs[0])
		}
		for _, n := range locs {
			if n < 0 || n >= 12 {
				t.Fatalf("block %d replica on invalid node %d", i, n)
			}
			per[n]++
		}
	}
	var total, max int
	for _, c := range per {
		total += c
		if c > max {
			max = c
		}
	}
	if total != 1000 {
		t.Errorf("total replicas = %d, want 1000", total)
	}
	if imb := float64(max) / (float64(total) / 12); imb > 1.25 {
		t.Errorf("placement imbalance = %v, want ≤ 1.25", imb)
	}
}

// Property: replicas are always on distinct nodes for any node count ≥
// replication, and effective replication degrades gracefully below it.
func TestPlacementDistinctProperty(t *testing.T) {
	f := func(nRaw, rRaw, bRaw uint8) bool {
		n := int(nRaw%20) + 1
		r := int(rRaw%4) + 1
		b := int(bRaw%64) + 1
		p, err := NewPlacement(n, r)
		if err != nil {
			return false
		}
		want := r
		if n < r {
			want = n
		}
		if p.EffectiveReplication() != want {
			return false
		}
		for i := 0; i < b; i++ {
			locs := p.Place(i, i%n)
			if len(locs) != want {
				return false
			}
			seen := map[int]bool{}
			for _, l := range locs {
				if seen[l] {
					return false
				}
				seen[l] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPlacementErrors(t *testing.T) {
	if _, err := NewPlacement(0, 2); err == nil {
		t.Error("NewPlacement(0, 2) succeeded")
	}
	if _, err := NewPlacement(3, 0); err == nil {
		t.Error("NewPlacement(3, 0) succeeded")
	}
	p, _ := NewPlacement(3, 2)
	defer func() {
		if recover() == nil {
			t.Error("Place with bad writer did not panic")
		}
	}()
	p.Place(0, 7)
}
