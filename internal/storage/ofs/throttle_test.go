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
	// With a loss, the rebuild tax applies before the NIC division.
	both, err := s.View(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	taxed := units.BytesPerSec(float64(cfg.ServerBW) * (1 - cfg.RebuildTax*4/32))
	if got, want := both.(*System).Config().ServerBW, units.BytesPerSec(float64(taxed)/2); got != want {
		t.Errorf("server BW = %v, want the taxed %v halved", got, taxed)
	}
}
