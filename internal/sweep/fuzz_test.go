package sweep

import (
	"errors"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseBudget drives the -watchdog parser with arbitrary specs. Beyond
// never panicking, a rejection is always a *SpecError; an accepted event
// count is the number written, not a conversion artifact (NaN or 1e30
// becoming 2^63, 2.7 becoming 2); and an accepted budget, rendered back as
// "events=N,simtime=D", parses to the identical budget. The committed
// corpus under testdata/fuzz seeds the search with the spec forms the CLIs,
// CI and the docs use, plus the rejected edge cases.
func FuzzParseBudget(f *testing.F) {
	for _, spec := range []string{
		"", "events=5000000", "events=1e7", "events=1e8", "simtime=48h",
		"events=5e7,simtime=720h", "events=100, simtime=30m", " events=1 , simtime=1s , ",
		"events=NaN", "events=+Inf", "events=1e30", "events=2.7", "events=0",
		"events=9007199254740992", "events=9007199254740994",
		"simtime=-1h", "walltime=5s", "events",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		b, err := ParseBudget(spec)
		if err != nil {
			var serr *SpecError
			if !errors.As(err, &serr) {
				t.Fatalf("ParseBudget(%q): error %v is not a *SpecError", spec, err)
			}
			return
		}
		written := "" // the last events= value; later entries override earlier ones
		for _, kv := range strings.Split(spec, ",") {
			key, val, _ := strings.Cut(strings.TrimSpace(kv), "=")
			if strings.TrimSpace(key) == "events" {
				written = strings.TrimSpace(val)
			}
		}
		if written != "" {
			if f, err := strconv.ParseFloat(written, 64); err != nil || f != float64(b.MaxEvents) {
				t.Fatalf("ParseBudget(%q): events=%s became MaxEvents %d", spec, written, b.MaxEvents)
			}
		}
		var parts []string
		if b.MaxEvents > 0 {
			parts = append(parts, "events="+strconv.FormatUint(b.MaxEvents, 10))
		}
		if b.MaxSimTime > 0 {
			parts = append(parts, "simtime="+b.MaxSimTime.String())
		}
		if b.MaxSimTime < 0 {
			t.Fatalf("ParseBudget(%q) = %+v: negative simtime accepted", spec, b)
		}
		round := strings.Join(parts, ",")
		back, err := ParseBudget(round)
		if err != nil || back != b {
			t.Fatalf("ParseBudget(%q) = %+v, but its rendering %q parses to %+v, %v", spec, b, round, back, err)
		}
	})
}
