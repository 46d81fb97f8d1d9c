package ofs

import (
	"errors"
	"testing"
	"testing/quick"

	"hybridmr/internal/storage"
	"hybridmr/internal/units"
)

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
	if _, err := New(DefaultConfig()); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	mut := func(f func(*Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	bad := []struct {
		name string
		cfg  Config
	}{
		{"no servers", mut(func(c *Config) { c.Servers = 0 })},
		{"no server bw", mut(func(c *Config) { c.ServerBW = 0 })},
		{"no capacity", mut(func(c *Config) { c.ServerCapacity = 0 })},
		{"no stripe", mut(func(c *Config) { c.StripeSize = 0 })},
		{"stripe width 0", mut(func(c *Config) { c.StripeWidth = 0 })},
		{"stripe width > servers", mut(func(c *Config) { c.StripeWidth = 33 })},
		{"no stream", mut(func(c *Config) { c.StreamBW = 0 })},
	}
	for _, tt := range bad {
		if _, err := New(tt.cfg); err == nil {
			t.Errorf("%s: New succeeded, want error", tt.name)
		}
	}
}

func TestPaperConfiguration(t *testing.T) {
	s, _ := New(DefaultConfig())
	if s.Name() != "OFS" {
		t.Errorf("Name = %q", s.Name())
	}
	cfg := s.Config()
	if cfg.Servers != 32 {
		t.Errorf("servers = %d, want 32 (§II-D)", cfg.Servers)
	}
	if cfg.StripeSize != 128*units.MB {
		t.Errorf("stripe size = %v, want 128MB (§II-D)", cfg.StripeSize)
	}
	if cfg.StripeWidth != 8 {
		t.Errorf("stripe width = %d, want 8 (§II-D: 1GB/128MB servers per file)", cfg.StripeWidth)
	}
	if got := s.AggregateBW(); got != units.MBps(300)*32 {
		t.Errorf("aggregate BW = %v", got)
	}
}

// §II-D: a 1 GB file with 128 MB stripes is stored on 8 servers.
func TestServersForFile(t *testing.T) {
	s, _ := New(DefaultConfig())
	tests := []struct {
		size units.Bytes
		want int
	}{
		{0, 1},
		{1 * units.KB, 1},
		{128 * units.MB, 1},
		{256 * units.MB, 2},
		{1 * units.GB, 8},
		{10 * units.GB, 8}, // capped by stripe width
	}
	for _, tt := range tests {
		if got := s.ServersForFile(tt.size); got != tt.want {
			t.Errorf("ServersForFile(%v) = %d, want %d", tt.size, got, tt.want)
		}
	}
}

func TestCapacityHuge(t *testing.T) {
	s, _ := New(DefaultConfig())
	// The paper stores the full 448 GB runs and the whole FB workload on
	// OFS without trouble.
	if err := s.CheckJobFit(1*units.TB, 100*units.GB); err != nil {
		t.Errorf("1TB job should fit: %v", err)
	}
	err := s.CheckJobFit(300*units.TB, 0)
	if !errors.Is(err, storage.ErrCapacity) {
		t.Errorf("300TB error = %v, want ErrCapacity", err)
	}
	var ce *storage.CapacityError
	if !errors.As(err, &ce) || *ce != (storage.CapacityError{FS: "ofs", Need: 300 * units.TB, Usable: s.UsableCapacity()}) {
		t.Errorf("300TB error = %#v, want a *CapacityError for 300TB of %v", err, s.UsableCapacity())
	}
	if got, want := err.Error(), "ofs: job needs 300.0TB of 256.0TB usable: storage: dataset exceeds file system capacity"; got != want {
		t.Errorf("300TB error text = %q, want %q", got, want)
	}
}

// Remote access costs a fixed latency regardless of size — the paper's
// explanation for HDFS beating OFS on small jobs.
func TestFixedRequestLatency(t *testing.T) {
	s, _ := New(DefaultConfig())
	if s.TaskReadLatency() <= 0 || s.TaskWriteLatency() <= 0 {
		t.Error("OFS must charge positive per-task latency")
	}
	if s.JobOverhead() <= 0 {
		t.Error("OFS must charge positive per-job overhead")
	}
}

// A lone stream is capped by StreamBW; a packed cluster shares the 9.6 GB/s
// aggregate.
func TestBandwidthSharing(t *testing.T) {
	s, _ := New(DefaultConfig())
	solo := s.PerTaskReadBW(ctx(1, 1, 12))
	if solo != units.MBps(250) {
		t.Errorf("solo read = %v, want 250MB/s stream cap", solo)
	}
	// 72 active tasks × 0.35 duty = 25.2 effective readers sharing
	// 9.6 GB/s → 380 MB/s... still stream-capped; NIC share: 6/node ×
	// 0.35 = 2.1 → 595 MB/s. So 250 MB/s.
	busy := s.PerTaskReadBW(ctx(72, 6, 12))
	if busy != units.MBps(250) {
		t.Errorf("out-cluster busy read = %v, want 250MB/s", busy)
	}
	// Scale-up: 18 tasks/node × 0.35 = 6.3 → NIC-bound at ≈198 MB/s.
	up := s.PerTaskReadBW(ctx(36, 18, 2))
	if up >= busy {
		t.Errorf("scale-up per-task OFS read %v should be NIC-bound below %v", up, busy)
	}
	if up < units.MBps(150) || up > units.MBps(220) {
		t.Errorf("scale-up per-task OFS read = %v, want ≈198MB/s", up)
	}
}

// Writes see no replication pipeline: same bandwidth as reads at equal duty.
func TestWriteSymmetric(t *testing.T) {
	s, _ := New(DefaultConfig())
	c := ctx(12, 1, 12)
	c.WriteDuty = c.ReadDuty
	if r, w := s.PerTaskReadBW(c), s.PerTaskWriteBW(c); r != w {
		t.Errorf("read %v != write %v at equal duty", r, w)
	}
}

// Property: bandwidth is positive and monotone non-increasing in load.
func TestBWMonotoneProperty(t *testing.T) {
	s, _ := New(DefaultConfig())
	f := func(aRaw, bRaw uint8) bool {
		a := int(aRaw)%200 + 1
		b := int(bRaw)%200 + 1
		if a > b {
			a, b = b, a
		}
		nodes := 12
		bwA := s.PerTaskReadBW(ctx(a, (a+nodes-1)/nodes, nodes))
		bwB := s.PerTaskReadBW(ctx(b, (b+nodes-1)/nodes, nodes))
		return bwA > 0 && bwB > 0 && bwB <= bwA
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
