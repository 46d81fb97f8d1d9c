package hdfs

import (
	"testing"

	"hybridmr/internal/units"
)

func TestThrottle(t *testing.T) {
	s, err := New(outConfig())
	if err != nil {
		t.Fatal(err)
	}
	th, err := s.View(0, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	ts := th.(*System)
	if got, want := ts.Config().NodeNIC, units.BytesPerSec(float64(outConfig().NodeNIC)/1.5); got != want {
		t.Errorf("throttled NIC = %v, want %v", got, want)
	}
	if ts.Config().DiskBW != s.Config().DiskBW {
		t.Error("NIC throttle changed the disks")
	}
	if th.Name() == s.Name() {
		t.Error("throttled system keeps the clean name (would alias cache keys)")
	}
	// Capacity is untouched — gray hardware is slow, not gone.
	if ts.UsableCapacity() != s.UsableCapacity() {
		t.Error("throttle changed capacity")
	}
}

// A throttle and a loss compose in either order: the view keeps both, and a
// further throttle multiplies the factor.
func TestThrottleComposesWithDegrade(t *testing.T) {
	s, err := New(outConfig())
	if err != nil {
		t.Fatal(err)
	}
	th, err := s.View(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if name := th.Name(); name != "HDFS(-2dn)÷n2" {
		t.Errorf("name %q drops the loss or the throttle", name)
	}
	th2, err := th.View(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if name := th2.Name(); name != "HDFS(-2dn)÷n4" {
		t.Errorf("name %q does not multiply the nic factor", name)
	}
	// A loss on top of a throttled view keeps the throttle.
	deg, err := th.View(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.View(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if deg.Name() != want.Name() || deg.(*System).Config() != want.(*System).Config() {
		t.Errorf("loss on a throttled view = %q, want %q", deg.Name(), want.Name())
	}
}
