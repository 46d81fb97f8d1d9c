package stats

import "testing"

// TestSamplerSteadyStateAllocs pins the per-probe sampling hot paths,
// RNG.Float64 and LogUniformVar.Sample, at zero allocations. Every injected straggler draws from these, so a regression
// here multiplies across the whole jitter sweep.
func TestSamplerSteadyStateAllocs(t *testing.T) {
	g := NewRNG(1)
	v := NewLogUniformVar(1.05, 2.0)
	var sink float64
	avg := testing.AllocsPerRun(1000, func() {
		sink += g.Float64()
		sink += v.Sample(g)
	})
	if avg != 0 {
		t.Errorf("Float64+Sample steady state: %v allocs/op, want 0", avg)
	}
	if sink == 0 {
		t.Error("samplers returned all zeros")
	}
}
