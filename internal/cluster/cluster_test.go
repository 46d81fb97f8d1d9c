package cluster

import (
	"math"
	"testing"

	"hybridmr/internal/units"
)

func TestPresetsValidate(t *testing.T) {
	for _, s := range []Spec{ScaleUp2(), ScaleOut12(), ScaleOut24()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

// The paper's slot accounting (§II-D): 24 map+reduce slots per scale-up
// machine, 8 per scale-out machine.
func TestSlotAccounting(t *testing.T) {
	up := ScaleUp2()
	if got := up.MapSlotsPerMachine() + up.ReduceSlotsPerMachine(); got != 24 {
		t.Errorf("scale-up slots per machine = %d, want 24", got)
	}
	if up.MapSlots() != 36 || up.ReduceSlots() != 12 {
		t.Errorf("scale-up slots = %d map / %d reduce, want 36/12", up.MapSlots(), up.ReduceSlots())
	}
	out := ScaleOut12()
	if got := out.MapSlotsPerMachine() + out.ReduceSlotsPerMachine(); got != 8 {
		t.Errorf("scale-out slots per machine = %d, want 8", got)
	}
	if out.MapSlots() != 72 || out.ReduceSlots() != 24 {
		t.Errorf("scale-out slots = %d map / %d reduce, want 72/24", out.MapSlots(), out.ReduceSlots())
	}
	if big := ScaleOut24(); big.MapSlots() != 144 || big.ReduceSlots() != 48 {
		t.Errorf("scale-out-24 slots = %d/%d, want 144/48", big.MapSlots(), big.ReduceSlots())
	}
}

// The paper chose 2 scale-up vs 12 scale-out machines for equal price
// (§II-C), and the 24-node baseline matches the hybrid's total cost (§V).
func TestPriceParity(t *testing.T) {
	up, out, out24 := ScaleUp2(), ScaleOut12(), ScaleOut24()
	if up.TotalPrice() != out.TotalPrice() {
		t.Errorf("scale-up price %v != scale-out price %v", up.TotalPrice(), out.TotalPrice())
	}
	hybrid := up.TotalPrice() + out.TotalPrice()
	if out24.TotalPrice() != hybrid {
		t.Errorf("24-node price %v != hybrid price %v", out24.TotalPrice(), hybrid)
	}
}

func TestMachinePresetsMatchPaper(t *testing.T) {
	upm := ScaleUpMachine()
	if upm.Cores != 24 || upm.RAM != 505*units.GB || upm.DiskCapacity != 91*units.GB {
		t.Errorf("scale-up machine deviates from paper: %+v", upm)
	}
	if !upm.RAMDisk {
		t.Error("scale-up machine must use a RAM disk for shuffle data (§II-D)")
	}
	if upm.RAMDiskCapacity() != upm.RAM/2 {
		t.Errorf("RAM disk capacity = %v, want half of RAM", upm.RAMDiskCapacity())
	}
	if upm.HeapShuffle != 8*units.GB {
		t.Errorf("scale-up heap = %v, want 8GB", upm.HeapShuffle)
	}
	outm := ScaleOutMachine()
	if outm.Cores != 8 || outm.RAM != 16*units.GB || outm.DiskCapacity != 193*units.GB {
		t.Errorf("scale-out machine deviates from paper: %+v", outm)
	}
	if outm.RAMDisk {
		t.Error("scale-out machine must not use a RAM disk (§II-D)")
	}
	if outm.RAMDiskCapacity() != 0 {
		t.Error("RAMDiskCapacity should be 0 without a RAM disk")
	}
	if outm.HeapShuffle != units.Bytes(1.5*float64(units.GB)) || outm.HeapMap != units.GB {
		t.Errorf("scale-out heaps = %v/%v, want 1.5GB/1GB", outm.HeapShuffle, outm.HeapMap)
	}
	if outm.CPUFactor >= upm.CPUFactor {
		t.Error("scale-up cores must be faster than scale-out cores")
	}
}

func TestShuffleStore(t *testing.T) {
	upm, outm := ScaleUpMachine(), ScaleOutMachine()
	if upm.ShuffleStoreBW() != upm.RAMDiskBW {
		t.Error("scale-up shuffle store should be the RAM disk")
	}
	if outm.ShuffleStoreBW() != outm.DiskBW {
		t.Error("scale-out shuffle store should be the local disk")
	}
	if upm.ShuffleStoreCapacity() != upm.RAM/2 {
		t.Error("scale-up shuffle capacity should be tmpfs size")
	}
	if outm.ShuffleStoreCapacity() != outm.DiskCapacity {
		t.Error("scale-out shuffle capacity should be the disk")
	}
}

func TestTasksPerNode(t *testing.T) {
	out := ScaleOut12()
	tests := []struct {
		active, want int
	}{
		{0, 0}, {-3, 0}, {1, 1}, {12, 1}, {13, 2}, {72, 6}, {100, 9},
	}
	for _, tt := range tests {
		if got := out.TasksPerNode(tt.active); got != tt.want {
			t.Errorf("TasksPerNode(%d) = %d, want %d", tt.active, got, tt.want)
		}
	}
}

func TestAggregates(t *testing.T) {
	out := ScaleOut12()
	if got := out.AggregateNIC(); got != units.GBps(1.25)*12 {
		t.Errorf("AggregateNIC = %v", got)
	}
}

func TestValidationErrors(t *testing.T) {
	good := ScaleUp2()

	broken := func(mut func(*Spec)) Spec {
		s := good
		mut(&s)
		return s
	}
	cases := []struct {
		name string
		spec Spec
	}{
		{"no name", broken(func(s *Spec) { s.Name = "" })},
		{"no machines", broken(func(s *Spec) { s.Machines = 0 })},
		{"bad fraction low", broken(func(s *Spec) { s.MapSlotFraction = 0 })},
		{"bad fraction high", broken(func(s *Spec) { s.MapSlotFraction = 1 })},
		{"machine no cores", broken(func(s *Spec) { s.Machine.Cores = 0 })},
		{"machine no cpu", broken(func(s *Spec) { s.Machine.CPUFactor = 0 })},
		{"machine no ram", broken(func(s *Spec) { s.Machine.RAM = 0 })},
		{"machine no disk bw", broken(func(s *Spec) { s.Machine.DiskBW = 0 })},
		{"machine no nic", broken(func(s *Spec) { s.Machine.NICBW = 0 })},
		{"ramdisk without bw", broken(func(s *Spec) { s.Machine.RAMDiskBW = 0 })},
		{"machine no heap", broken(func(s *Spec) { s.Machine.HeapShuffle = 0 })},
		{"machine no name", broken(func(s *Spec) { s.Machine.Name = "" })},
	}
	for _, tt := range cases {
		if err := tt.spec.Validate(); err == nil {
			t.Errorf("%s: Validate succeeded, want error", tt.name)
		}
	}
}

// A view with machines down shrinks the slot pools; losing every machine
// (a fully crashed cluster) must error — never panic — and the original
// spec is left untouched.
func TestWithMachines(t *testing.T) {
	up := ScaleUp2()
	d, err := up.View(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Machines != 1 || d.MapSlots() != up.MapSlots()/2 {
		t.Errorf("degraded spec = %d machines / %d map slots", d.Machines, d.MapSlots())
	}
	if up.Machines != 2 {
		t.Error("View mutated the receiver")
	}
	if d.Machine != up.Machine || d.Bisection != up.Bisection {
		t.Error("a machine loss changed the network")
	}
	for _, k := range []int{2, 3} {
		if _, err := up.View(k, 1, 1); err == nil {
			t.Errorf("View with %d of 2 machines down accepted", k)
		}
	}
}

// The slot split always leaves at least one map and one reduce slot even on
// tiny machines.
func TestSlotSplitBounds(t *testing.T) {
	s := ScaleOut12()
	s.Machine.Cores = 2
	if s.MapSlotsPerMachine() != 1 || s.ReduceSlotsPerMachine() != 1 {
		t.Errorf("2-core split = %d/%d, want 1/1", s.MapSlotsPerMachine(), s.ReduceSlotsPerMachine())
	}
	if err := s.Validate(); err != nil {
		t.Errorf("2-core spec invalid: %v", err)
	}
}

func TestThrottle(t *testing.T) {
	s := ScaleOut12()
	th, err := s.View(0, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := th.Machine.NICBW, s.Machine.NICBW/2; got != want {
		t.Errorf("throttled NIC = %v, want %v", got, want)
	}
	if th.Bisection != 0.25 {
		t.Errorf("bisection = %v, want 0.25", th.Bisection)
	}
	// Aggregate pays both: links halved and bisection quartered.
	if got, want := th.AggregateNIC(), s.AggregateNIC()/8; got != want {
		t.Errorf("throttled aggregate = %v, want %v", got, want)
	}
	// Slots, capacity and price are untouched — the machines still run.
	if th.MapSlots() != s.MapSlots() || th.TotalPrice() != s.TotalPrice() {
		t.Error("network throttle changed compute accounting")
	}
	// The identity returns the spec unchanged, zero-value Bisection intact.
	id, err := s.View(0, 1, 1)
	if err != nil || id != s {
		t.Errorf("unit view changed the spec: %v", err)
	}
	// Losses and throttles land together in one view.
	both, err := s.View(3, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if both.Machines != 9 || both.Machine.NICBW != th.Machine.NICBW || both.Bisection != th.Bisection {
		t.Errorf("combined view = %d machines, NIC %v, bisection %v", both.Machines, both.Machine.NICBW, both.Bisection)
	}
}

func TestBisectionZeroValueIsFull(t *testing.T) {
	s := ScaleOut12()
	if s.Bisection != 0 {
		t.Fatal("preset carries an explicit bisection")
	}
	full := s
	full.Bisection = 1
	if s.AggregateNIC() != full.AggregateNIC() {
		t.Error("zero-value bisection differs from explicit full bisection")
	}
	if err := full.Validate(); err != nil {
		t.Errorf("explicit full bisection invalid: %v", err)
	}
	for _, b := range []float64{1.5, -0.5, math.NaN()} {
		bad := s
		bad.Bisection = b
		if err := bad.Validate(); err == nil {
			t.Errorf("bisection %v accepted", b)
		}
	}
}
