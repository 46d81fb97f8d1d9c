package hdfs

import (
	"testing"
)

// HDFS has no links of its own: its replica pipeline and non-local reads
// cross the compute nodes' NICs, which the platform's cluster view
// throttles. A NIC factor alone returns the receiver, and with a loss it
// changes nothing the loss does not.
func TestThrottle(t *testing.T) {
	s, err := New(outConfig())
	if err != nil {
		t.Fatal(err)
	}
	if th, err := s.View(0, 1.5); err != nil || th != s {
		t.Errorf("View(0, 1.5) = %v, %v; want the receiver", th, err)
	}
	lossOnly, err := s.View(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	both, err := s.View(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if both.(*System).Config() != lossOnly.(*System).Config() {
		t.Error("NIC factor changed the degraded configuration")
	}
}
