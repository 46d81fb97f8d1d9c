package hdfs

import (
	"testing"
)

func TestDegrade(t *testing.T) {
	s, err := New(outConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := s.View(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := sys.(*System)
	if d.Name() != "HDFS" {
		t.Errorf("degraded name = %q, want HDFS (the platform name carries the levels)", d.Name())
	}
	if d.Config().Datanodes != 9 {
		t.Errorf("degraded datanodes = %d, want 9", d.Config().Datanodes)
	}
	if d.UsableCapacity() >= s.UsableCapacity() {
		t.Error("capacity did not shrink with the lost datanodes")
	}
	if d.Config().NonLocalFraction <= s.Config().NonLocalFraction {
		t.Error("non-local fraction did not rise for under-replicated blocks")
	}
	if d.Config().DiskBW >= s.Config().DiskBW {
		t.Error("surviving disk bandwidth not taxed by re-replication")
	}
	c := ctx(24, 2, 9)
	if d.PerTaskReadBW(c) >= s.PerTaskReadBW(c) {
		t.Error("degraded reads not slower than healthy reads")
	}
	if d.PerTaskWriteBW(c) >= s.PerTaskWriteBW(c) {
		t.Error("degraded writes not slower than healthy writes")
	}
}

func TestDegradeErrors(t *testing.T) {
	s, _ := New(upConfig()) // 2 datanodes
	for _, lost := range []int{-1, 2, 3} {
		if _, err := s.View(lost, 1); err == nil {
			t.Errorf("View(%d, 1) of a 2-node cluster accepted", lost)
		}
	}
	d1, err := s.View(1, 1)
	if err != nil {
		t.Fatalf("View(1, 1) of a 2-node cluster rejected: %v", err)
	}
	if _, err := d1.View(1, 1); err == nil {
		t.Error("losing the last datanode of a 1-node view accepted")
	}
}

func TestRebuildTaxValidation(t *testing.T) {
	cfg := upConfig()
	cfg.RebuildTax = 1
	if _, err := New(cfg); err == nil {
		t.Error("rebuild tax 1 accepted")
	}
	cfg.RebuildTax = -0.1
	if _, err := New(cfg); err == nil {
		t.Error("negative rebuild tax accepted")
	}
}
