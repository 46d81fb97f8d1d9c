// Package netmodel models the cluster interconnect. The paper's testbed
// uses 10 Gbps Myrinet everywhere — compute nodes, the namenode and the 32
// OrangeFS servers — and credits its low protocol overhead for OFS's I/O
// performance (§II-D). The fabric model provides per-node and bisection
// bandwidth; an Ethernet preset exists for ablations showing how the
// paper's conclusions shift on a slower fabric.
package netmodel

import (
	"fmt"

	"hybridmr/internal/units"
)

// Fabric describes one interconnect.
type Fabric struct {
	// Name identifies the fabric.
	Name string
	// PerNodeBW is each host's link bandwidth.
	PerNodeBW units.BytesPerSec
	// BisectionFactor scales the aggregate bandwidth available when all
	// nodes communicate at once: 1.0 is full bisection (Myrinet's Clos
	// topology), below 1 models oversubscription.
	BisectionFactor float64
}

// Myrinet10G returns the Palmetto fabric: 10 Gbps, full bisection.
func Myrinet10G() Fabric {
	return Fabric{
		Name:            "myrinet-10g",
		PerNodeBW:       units.GBps(1.25),
		BisectionFactor: 1.0,
	}
}

// Ethernet1G returns a commodity 1 GbE fabric with 4:1 oversubscription,
// for ablations.
func Ethernet1G() Fabric {
	return Fabric{
		Name:            "ethernet-1g",
		PerNodeBW:       units.MBps(118),
		BisectionFactor: 0.25,
	}
}

// Validate reports configuration errors.
func (f Fabric) Validate() error {
	switch {
	case f.Name == "":
		return fmt.Errorf("netmodel: fabric has no name")
	case f.PerNodeBW <= 0:
		return fmt.Errorf("netmodel: %s: non-positive link bandwidth", f.Name)
	case f.BisectionFactor <= 0 || f.BisectionFactor > 1:
		return fmt.Errorf("netmodel: %s: bisection factor %v outside (0,1]", f.Name, f.BisectionFactor)
	}
	return nil
}

// Throttled returns the fabric with every node's link bandwidth divided by
// factor — a gray NIC failure (misnegotiated link, congested uplink). A
// factor of 1 returns the fabric unchanged; factors below 1 are invalid and
// surface through Validate on the returned fabric.
func (f Fabric) Throttled(factor float64) Fabric {
	if factor == 1 {
		return f
	}
	f.Name = fmt.Sprintf("%s/nic÷%g", f.Name, factor)
	f.PerNodeBW = units.BytesPerSec(float64(f.PerNodeBW) / factor)
	return f
}

// Partitioned returns the fabric with its bisection bandwidth divided by
// factor — a partial rack partition: every node stays reachable, but the
// inter-rack links carry 1/factor of their aggregate traffic. Per-node
// bandwidth is untouched; only Aggregate shrinks.
func (f Fabric) Partitioned(factor float64) Fabric {
	if factor == 1 {
		return f
	}
	f.Name = fmt.Sprintf("%s/bisect÷%g", f.Name, factor)
	f.BisectionFactor /= factor
	return f
}

// Aggregate returns the bandwidth available when n nodes transmit
// concurrently: n links discounted by the bisection factor.
func (f Fabric) Aggregate(n int) units.BytesPerSec {
	if n < 1 {
		return 0
	}
	return units.BytesPerSec(float64(f.PerNodeBW) * float64(n) * f.BisectionFactor)
}
