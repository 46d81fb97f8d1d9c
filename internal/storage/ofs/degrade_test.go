package ofs

import (
	"testing"
)

func TestDegrade(t *testing.T) {
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := s.View(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := sys.(*System)
	if d.Name() != "OFS" {
		t.Errorf("degraded name = %q, want OFS (the platform name carries the levels)", d.Name())
	}
	if d.Config().Servers != 28 {
		t.Errorf("degraded servers = %d, want 28", d.Config().Servers)
	}
	if d.AggregateBW() >= s.AggregateBW() {
		t.Error("aggregate bandwidth did not shrink")
	}
	if d.UsableCapacity() >= s.UsableCapacity() {
		t.Error("capacity did not shrink")
	}
	c := ctx(96, 8, 12)
	if d.PerTaskReadBW(c) > s.PerTaskReadBW(c) {
		t.Error("degraded reads faster than healthy reads")
	}
}

// Deep losses shrink the stripe width: a file cannot stripe over servers that
// no longer exist.
func TestDegradeStripeWidth(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Servers = 10
	s, _ := New(cfg)
	sys, err := s.View(5, 1) // 5 survivors < stripe width 8
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.(*System).Config().StripeWidth; got != 5 {
		t.Errorf("stripe width = %d, want 5 (the surviving servers)", got)
	}
}

func TestDegradeErrors(t *testing.T) {
	s, _ := New(DefaultConfig()) // 32 servers
	for _, lost := range []int{-1, 32, 40} {
		if _, err := s.View(lost, 1); err == nil {
			t.Errorf("View(%d, 1) of 32 servers accepted", lost)
		}
	}
	d31, err := s.View(31, 1)
	if err != nil {
		t.Fatalf("View(31, 1) rejected: %v", err)
	}
	if _, err := d31.View(1, 1); err == nil {
		t.Error("losing the last server of a 1-server view accepted")
	}
	cfg := DefaultConfig()
	cfg.RebuildTax = 1.2
	if _, err := New(cfg); err == nil {
		t.Error("rebuild tax above 1 accepted")
	}
}
