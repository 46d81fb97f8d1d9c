// Package cluster models the compute machines of the paper's testbed: the
// Clemson Palmetto scale-up nodes (4× 6-core 2.66 GHz Xeon 7542, 505 GB RAM,
// 91 GB disk) and scale-out nodes (2× 4-core 2.3 GHz Opteron 2356, 16 GB RAM,
// 193 GB disk), both on 10 Gbps Myrinet. It provides the cluster presets used
// throughout the measurement study (2 scale-up, 12 scale-out) and the
// baselines (24 scale-out), chosen by the authors for equal total price.
package cluster

import (
	"fmt"

	"hybridmr/internal/netmodel"
	"hybridmr/internal/units"
)

// MachineSpec describes one machine model.
type MachineSpec struct {
	// Name identifies the model, e.g. "scale-up" or "scale-out".
	Name string
	// Cores is the number of physical cores; Hadoop 1.x is configured with
	// map+reduce slots equal to this count (paper §II-D).
	Cores int
	// CoreGHz is the nominal clock, for documentation.
	CoreGHz float64
	// CPUFactor is per-core compute speed relative to the scale-out
	// baseline (Opteron 2356 = 1.0). It multiplies application compute
	// rates and divides task-startup costs.
	CPUFactor float64
	// RAM is total memory.
	RAM units.Bytes
	// HeapShuffle and HeapMap are the per-task JVM heap sizes the paper
	// tuned for shuffle-intensive and map-intensive applications (§II-D:
	// 8 GB on scale-up; 1.5 GB / 1 GB on scale-out).
	HeapShuffle, HeapMap units.Bytes
	// DiskCapacity and DiskBW describe the local disk (HDFS data and, on
	// scale-out machines, shuffle spill space).
	DiskCapacity units.Bytes
	DiskBW       units.BytesPerSec
	// NICBW is the per-machine network bandwidth (10 Gbps Myrinet).
	NICBW units.BytesPerSec
	// RAMDisk reports whether half the RAM is mounted as tmpfs for
	// shuffle data (§II-D enables this only on scale-up machines).
	RAMDisk bool
	// RAMDiskBW is the tmpfs bandwidth when RAMDisk is set.
	RAMDiskBW units.BytesPerSec
	// PriceUSD approximates the machine's market price; the paper sizes
	// the two clusters to equal total cost (§II-C).
	PriceUSD float64
}

// RAMDiskCapacity returns the tmpfs size (half of RAM, per §II-D), or 0 when
// the machine has no RAM disk.
func (m MachineSpec) RAMDiskCapacity() units.Bytes {
	if !m.RAMDisk {
		return 0
	}
	return m.RAM / 2
}

// ShuffleStoreBW returns the bandwidth of the store holding intermediate
// (shuffle) data: tmpfs on scale-up machines, the local disk otherwise.
func (m MachineSpec) ShuffleStoreBW() units.BytesPerSec {
	if m.RAMDisk {
		return m.RAMDiskBW
	}
	return m.DiskBW
}

// ShuffleStoreCapacity returns the capacity of the shuffle store.
func (m MachineSpec) ShuffleStoreCapacity() units.Bytes {
	if m.RAMDisk {
		return m.RAMDiskCapacity()
	}
	return m.DiskCapacity
}

// Validate reports configuration errors.
func (m MachineSpec) Validate() error {
	switch {
	case m.Name == "":
		return fmt.Errorf("cluster: machine has no name")
	case m.Cores <= 0:
		return fmt.Errorf("cluster: machine %s: cores %d", m.Name, m.Cores)
	case m.CPUFactor <= 0:
		return fmt.Errorf("cluster: machine %s: CPU factor %v", m.Name, m.CPUFactor)
	case m.RAM <= 0, m.DiskCapacity <= 0:
		return fmt.Errorf("cluster: machine %s: non-positive RAM or disk", m.Name)
	case m.DiskBW <= 0, m.NICBW <= 0:
		return fmt.Errorf("cluster: machine %s: non-positive bandwidth", m.Name)
	case m.RAMDisk && m.RAMDiskBW <= 0:
		return fmt.Errorf("cluster: machine %s: RAM disk without bandwidth", m.Name)
	case m.HeapShuffle <= 0 || m.HeapMap <= 0:
		return fmt.Errorf("cluster: machine %s: non-positive heap", m.Name)
	}
	return nil
}

// Spec describes a homogeneous cluster of machines.
type Spec struct {
	// Name identifies the cluster, e.g. "scale-up" / "scale-out".
	Name string
	// Machine is the machine model; Machines the node count.
	Machine  MachineSpec
	Machines int
	// MapSlotFraction is the fraction of each machine's slots used as map
	// slots (the remainder are reduce slots). Hadoop 1.x uses a static
	// split; 0.75 matches common production settings.
	MapSlotFraction float64
	// Bisection scales the cluster's aggregate network bandwidth below the
	// sum of its links: 0 (the zero value) and 1 both mean full bisection;
	// a gray rack partition divides it. Per-link quantities are unaffected.
	Bisection float64
}

// bisection returns the effective bisection factor, treating the zero value
// as full bisection so pre-gray specs behave exactly as before.
func (s Spec) bisection() float64 {
	if s.Bisection == 0 {
		return 1
	}
	return s.Bisection
}

// Validate reports configuration errors.
func (s Spec) Validate() error {
	if err := s.Machine.Validate(); err != nil {
		return err
	}
	switch {
	case s.Name == "":
		return fmt.Errorf("cluster: spec has no name")
	case s.Machines <= 0:
		return fmt.Errorf("cluster: %s: machine count %d", s.Name, s.Machines)
	case s.MapSlotFraction <= 0 || s.MapSlotFraction >= 1:
		return fmt.Errorf("cluster: %s: map slot fraction %v outside (0,1)", s.Name, s.MapSlotFraction)
	}
	if !(s.Bisection >= 0 && s.Bisection <= 1) { // NaN fails both
		return fmt.Errorf("cluster: %s: bisection %v outside [0,1]", s.Name, s.Bisection)
	}
	if s.MapSlotsPerMachine() < 1 || s.ReduceSlotsPerMachine() < 1 {
		return fmt.Errorf("cluster: %s: slot split leaves an empty pool", s.Name)
	}
	return nil
}

// View returns the spec with machinesDown machines crashed and seen
// through a gray network failure: every machine's NIC bandwidth divided by
// nic and the cluster's bisection bandwidth divided by rack (1 is the
// identity on either axis). The caller (mapreduce.Platform.View) validates
// the levels: machinesDown ≥ 0 and both factors finite and ≥ 1. A view
// with every machine down is an error, not a cluster.
func (s Spec) View(machinesDown int, nic, rack float64) (Spec, error) {
	s.Machines -= machinesDown
	if nic != 1 || rack != 1 {
		s.Machine.NICBW = units.BytesPerSec(float64(s.Machine.NICBW) / nic)
		s.Bisection = s.bisection() / rack
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// MapSlotsPerMachine returns the per-machine map slot count.
func (s Spec) MapSlotsPerMachine() int {
	n := int(float64(s.Machine.Cores)*s.MapSlotFraction + 0.5)
	if n < 1 {
		n = 1
	}
	if n >= s.Machine.Cores {
		n = s.Machine.Cores - 1
	}
	return n
}

// ReduceSlotsPerMachine returns the per-machine reduce slot count; map and
// reduce slots together equal the core count, per the paper's tuning.
func (s Spec) ReduceSlotsPerMachine() int {
	return s.Machine.Cores - s.MapSlotsPerMachine()
}

// MapSlots returns the cluster-wide map slot count.
func (s Spec) MapSlots() int { return s.Machines * s.MapSlotsPerMachine() }

// ReduceSlots returns the cluster-wide reduce slot count.
func (s Spec) ReduceSlots() int { return s.Machines * s.ReduceSlotsPerMachine() }

// TotalPrice returns the cluster's total machine price.
func (s Spec) TotalPrice() float64 { return float64(s.Machines) * s.Machine.PriceUSD }

// AggregateNIC returns the network bandwidth available when every machine
// transmits at once: the summed links discounted by the bisection factor.
func (s Spec) AggregateNIC() units.BytesPerSec {
	return units.BytesPerSec(float64(s.Machine.NICBW) * float64(s.Machines) * s.bisection())
}

// TasksPerNode returns how many of `active` concurrently running tasks land
// on each machine, assuming even spread (ceiling).
func (s Spec) TasksPerNode(active int) int {
	if active <= 0 {
		return 0
	}
	return (active + s.Machines - 1) / s.Machines
}

// ScaleUpMachine returns the paper's scale-up machine model.
func ScaleUpMachine() MachineSpec {
	return MachineSpec{
		Name:         "scale-up",
		Cores:        24, // 4× 6-core Xeon 7542
		CoreGHz:      2.66,
		CPUFactor:    1.435, // Nehalem-EX vs Opteron Barcelona, per core
		RAM:          505 * units.GB,
		HeapShuffle:  8 * units.GB,
		HeapMap:      8 * units.GB,
		DiskCapacity: 91 * units.GB,
		DiskBW:       units.MBps(85),
		NICBW:        netmodel.Myrinet10G().PerNodeBW,
		RAMDisk:      true,
		RAMDiskBW:    units.GBps(3),
		PriceUSD:     24000,
	}
}

// ScaleOutMachine returns the paper's scale-out machine model.
func ScaleOutMachine() MachineSpec {
	return MachineSpec{
		Name:         "scale-out",
		Cores:        8, // 2× 4-core Opteron 2356
		CoreGHz:      2.3,
		CPUFactor:    1.0,
		RAM:          16 * units.GB,
		HeapShuffle:  units.Bytes(1.5 * float64(units.GB)),
		HeapMap:      1 * units.GB,
		DiskCapacity: 193 * units.GB,
		DiskBW:       units.MBps(85),
		NICBW:        netmodel.Myrinet10G().PerNodeBW,
		RAMDisk:      false,
		PriceUSD:     4000,
	}
}

// ScaleUp2 returns the measurement study's 2-machine scale-up cluster.
func ScaleUp2() Spec {
	return Spec{Name: "scale-up", Machine: ScaleUpMachine(), Machines: 2, MapSlotFraction: 0.75}
}

// ScaleOut12 returns the measurement study's 12-machine scale-out cluster.
func ScaleOut12() Spec {
	return Spec{Name: "scale-out", Machine: ScaleOutMachine(), Machines: 12, MapSlotFraction: 0.75}
}

// ScaleOut24 returns the 24-machine scale-out cluster used for the THadoop
// and RHadoop baselines in the trace experiment (§V); its total price equals
// the hybrid's 2 scale-up + 12 scale-out machines.
func ScaleOut24() Spec {
	return Spec{Name: "scale-out-24", Machine: ScaleOutMachine(), Machines: 24, MapSlotFraction: 0.75}
}
