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
