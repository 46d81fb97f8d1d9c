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
	if d.Name() != "OFS(-4srv)" {
		t.Errorf("degraded name = %q", d.Name())
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

// View levels add to the receiver's and are computed from the healthy
// configuration: viewing a degraded system again loses more servers, the
// same as one view with the summed loss, and a unit view is the identity.
func TestDegradeCumulative(t *testing.T) {
	s, _ := New(DefaultConfig())
	d4, err := s.View(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	again, err := d4.View(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	d8, err := s.View(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if again.Name() != "OFS(-8srv)" || again.(*System).Config() != d8.(*System).Config() {
		t.Errorf("re-degrading by 4 gave %q, want the 8-server view", again.Name())
	}
	if same, err := d4.View(0, 1); err != nil || same != d4 {
		t.Errorf("View(0, 1) did not return the receiver: %v", err)
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
		t.Error("losing the last server through a view of a view accepted")
	}
	cfg := DefaultConfig()
	cfg.RebuildTax = 1.2
	if _, err := New(cfg); err == nil {
		t.Error("rebuild tax above 1 accepted")
	}
}
