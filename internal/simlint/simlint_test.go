package simlint_test

import (
	"path/filepath"
	"testing"

	"hybridmr/internal/simlint"
	"hybridmr/internal/simlint/simlinttest"
)

func fixture(name string) string {
	return filepath.Join("testdata", "src", name)
}

func TestWalltime(t *testing.T) {
	simlinttest.Run(t, fixture("walltime"), simlint.Walltime)
}

func TestMaporder(t *testing.T) {
	simlinttest.Run(t, fixture("maporder"), simlint.Maporder)
}

func TestLocksafe(t *testing.T) {
	simlinttest.Run(t, fixture("locksafe"), simlint.Locksafe)
}

func TestSelectorder(t *testing.T) {
	simlinttest.Run(t, fixture("selectorder"), simlint.Selectorder)
}

// TestObsExport pins the exporter shape internal/obs must keep now that it
// is under the determinism contract: wall-clock stamps and unsorted registry
// ranges are diagnostics; sim-time stamps and the sorted-keys idiom pass.
func TestObsExport(t *testing.T) {
	simlinttest.Run(t, fixture("obsexport"), simlint.Walltime, simlint.Maporder)
}

// TestGrayfail pins the gray-failure response shapes — blacklist parole and
// speculative clone selection — that internal/core and internal/mapreduce
// must keep clean: wall-clock bench horizons and map-order candidate picks
// are diagnostics; sim-time horizons and the sorted-keys pick pass.
func TestGrayfail(t *testing.T) {
	simlinttest.Run(t, fixture("grayfail"), simlint.Walltime, simlint.Maporder)
}

// TestSuppression pins the directive contract: a reasoned //simlint:allow
// suppresses its line, a reasonless one suppresses nothing and is itself
// diagnosed, and a stale one is reported.
func TestSuppression(t *testing.T) {
	simlinttest.Run(t, fixture("suppress"), simlint.Walltime)
}

// TestIsSimPackage pins the contract boundary: listed packages and their
// subpackages are in; tooling (simlint itself, cmd) is out.
func TestIsSimPackage(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"hybridmr/internal/simclock", true},
		{"hybridmr/internal/mapreduce", true},
		{"hybridmr/internal/engine", true},
		{"hybridmr/internal/faults", true},
		{"hybridmr/internal/sweep", true},
		{"hybridmr/internal/core", true},
		{"hybridmr/internal/figures", true},
		{"hybridmr/internal/figures/sub", true},
		{"hybridmr/internal/obs", true},
		{"hybridmr/internal/obsolete", false},
		{"hybridmr/internal/figuresque", false},
		{"hybridmr/internal/stats", false},
		{"hybridmr/internal/simlint", false},
		{"hybridmr/cmd/hybridsim", false},
	}
	for _, c := range cases {
		if got := simlint.IsSimPackage(c.path); got != c.want {
			t.Errorf("IsSimPackage(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}
