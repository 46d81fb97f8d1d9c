package ofs

import (
	"testing"

	"hybridmr/internal/units"
)

func TestThrottle(t *testing.T) {
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	th, err := s.View(0, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	ts := th.(*System)
	if got, want := ts.Config().ServerBW, units.BytesPerSec(float64(DefaultConfig().ServerBW)/1.5); got != want {
		t.Errorf("throttled server BW = %v, want %v", got, want)
	}
	if th.Name() == s.Name() {
		t.Error("throttled system keeps the clean name (would alias cache keys)")
	}
	if ts.UsableCapacity() != s.UsableCapacity() {
		t.Error("throttle changed capacity")
	}
	if ts.Config().StripeWidth != s.Config().StripeWidth {
		t.Error("throttle changed striping")
	}
	c := ctx(96, 8, 12)
	if th.PerTaskReadBW(c) >= s.PerTaskReadBW(c) {
		t.Error("throttle did not slow reads")
	}
}

// A throttle and a loss compose in either order, the rebuild tax applied
// before the NIC division, and a further throttle multiplies the factor.
func TestThrottleComposesWithDegrade(t *testing.T) {
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	th, err := s.View(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if name := th.Name(); name != "OFS(-4srv)÷n2" {
		t.Errorf("name %q drops the loss or the throttle", name)
	}
	cfg := DefaultConfig()
	taxed := units.BytesPerSec(float64(cfg.ServerBW) * (1 - cfg.RebuildTax*4/32))
	if got, want := th.(*System).Config().ServerBW, units.BytesPerSec(float64(taxed)/2); got != want {
		t.Errorf("server BW = %v, want the taxed %v halved", got, taxed)
	}
	// A loss on top of a throttled view keeps the throttle.
	nicOnly, err := s.View(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	deg, err := nicOnly.View(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if deg.Name() != th.Name() || deg.(*System).Config() != th.(*System).Config() {
		t.Errorf("loss on a throttled view = %q, want %q", deg.Name(), th.Name())
	}
	th2, err := th.View(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if name := th2.Name(); name != "OFS(-4srv)÷n4" {
		t.Errorf("name %q does not multiply the nic factor", name)
	}
}
