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
