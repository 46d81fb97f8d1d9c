package main

import "testing"

func TestParseDegrade(t *testing.T) {
	good := map[string][2]float64{
		"":                {1, 1},
		"nic=2":           {2, 1},
		"rack=4":          {1, 4},
		" nic=2, rack=4 ": {2, 4},
	}
	for spec, want := range good {
		nic, rack, err := parseDegrade(spec)
		if err != nil || nic != want[0] || rack != want[1] {
			t.Errorf("parseDegrade(%q) = %v, %v, %v; want %v", spec, nic, rack, err, want)
		}
	}
	// Non-finite factors pass a plain `f < 1` test: +Inf would zero the
	// bisection (read as "unset, full") and NaN would fail only after the
	// measurement.
	for _, spec := range []string{
		"nic", "nic=0.5", "rack=x", "disk=2",
		"rack=Inf", "rack=+Inf", "rack=-Inf", "rack=NaN", "nic=NaN", "nic=Inf",
	} {
		if _, _, err := parseDegrade(spec); err == nil {
			t.Errorf("parseDegrade(%q) accepted", spec)
		}
	}
}
