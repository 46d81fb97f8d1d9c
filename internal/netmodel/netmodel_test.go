package netmodel

import (
	"testing"

	"hybridmr/internal/units"
)

func TestPresetsValid(t *testing.T) {
	for _, f := range []Fabric{Myrinet10G(), Ethernet1G()} {
		if err := f.Validate(); err != nil {
			t.Errorf("%s: %v", f.Name, err)
		}
	}
	if Myrinet10G().PerNodeBW != units.GBps(1.25) {
		t.Error("Myrinet should be 10 Gbps = 1.25 GB/s")
	}
	if Ethernet1G().PerNodeBW >= Myrinet10G().PerNodeBW {
		t.Error("Ethernet preset should be slower than Myrinet")
	}
}

func TestValidateErrors(t *testing.T) {
	mut := func(f func(*Fabric)) Fabric {
		fab := Myrinet10G()
		f(&fab)
		return fab
	}
	cases := []struct {
		name string
		fab  Fabric
	}{
		{"no name", mut(func(f *Fabric) { f.Name = "" })},
		{"no bw", mut(func(f *Fabric) { f.PerNodeBW = 0 })},
		{"zero bisection", mut(func(f *Fabric) { f.BisectionFactor = 0 })},
		{"bisection > 1", mut(func(f *Fabric) { f.BisectionFactor = 1.5 })},
	}
	for _, tt := range cases {
		if err := tt.fab.Validate(); err == nil {
			t.Errorf("%s: accepted", tt.name)
		}
	}
}

func TestAggregate(t *testing.T) {
	m := Myrinet10G()
	if got := m.Aggregate(12); got != units.GBps(1.25)*12 {
		t.Errorf("Aggregate(12) = %v", got)
	}
	if got := m.Aggregate(0); got != 0 {
		t.Errorf("Aggregate(0) = %v", got)
	}
	e := Ethernet1G()
	// Oversubscription discounts the aggregate.
	if got := e.Aggregate(4); got != units.BytesPerSec(float64(e.PerNodeBW)*4*0.25) {
		t.Errorf("oversubscribed Aggregate = %v", got)
	}
}

func TestThrottled(t *testing.T) {
	f := Myrinet10G()
	th := f.Throttled(2)
	if th.PerNodeBW != f.PerNodeBW/2 {
		t.Errorf("throttled ÷2 link = %v, want %v", th.PerNodeBW, f.PerNodeBW/2)
	}
	if th.BisectionFactor != f.BisectionFactor {
		t.Error("NIC throttle must not touch the bisection factor")
	}
	if th.Name == f.Name {
		t.Error("throttled fabric keeps the clean name (would alias cache keys)")
	}
	if err := th.Validate(); err != nil {
		t.Errorf("throttled fabric invalid: %v", err)
	}
	if f.Throttled(1) != f {
		t.Error("factor-1 throttle changed the fabric")
	}
	// Aggregate scales with the link.
	if got, want := th.Aggregate(4), f.Aggregate(4)/2; got != want {
		t.Errorf("throttled aggregate = %v, want %v", got, want)
	}
}

func TestPartitioned(t *testing.T) {
	f := Myrinet10G()
	p := f.Partitioned(4)
	if p.PerNodeBW != f.PerNodeBW {
		t.Error("partition must not touch per-node bandwidth")
	}
	if p.BisectionFactor != f.BisectionFactor/4 {
		t.Errorf("partitioned ÷4 bisection = %v, want %v", p.BisectionFactor, f.BisectionFactor/4)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("partitioned fabric invalid: %v", err)
	}
	if f.Partitioned(1) != f {
		t.Error("factor-1 partition changed the fabric")
	}
	if got, want := p.Aggregate(8), f.Aggregate(8)/4; got != want {
		t.Errorf("partitioned aggregate = %v, want %v", got, want)
	}
}
