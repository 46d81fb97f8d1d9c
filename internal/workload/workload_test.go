package workload

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"hybridmr/internal/units"
)

func TestDefaultConfigValidates(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Jobs = 200
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) != 200 {
		t.Fatalf("lengths %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs between runs with the same seed", i)
		}
	}
	cfg.Seed++
	c, _ := Generate(cfg)
	same := true
	for i := range a {
		if a[i].Input != c[i].Input {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical size streams")
	}
}

// Fig. 3's band fractions: 40 % < 1 MB, 49 % in [1 MB, 30 GB], 11 % above —
// checked before shrinking.
func TestGenerateBandFractions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Jobs = 20000
	cfg.Shrink = 1
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var small, mid, large int
	for _, j := range jobs {
		switch {
		case j.Input < units.MB:
			small++
		case j.Input <= 30*units.GB:
			mid++
		default:
			large++
		}
	}
	n := float64(len(jobs))
	if f := float64(small) / n; math.Abs(f-0.40) > 0.02 {
		t.Errorf("small fraction %v, want ≈0.40", f)
	}
	if f := float64(mid) / n; math.Abs(f-0.49) > 0.02 {
		t.Errorf("mid fraction %v, want ≈0.49", f)
	}
	if f := float64(large) / n; math.Abs(f-0.11) > 0.02 {
		t.Errorf("large fraction %v, want ≈0.11", f)
	}
}

// §V: "we shrank the input/shuffle/output data size of the workload by a
// factor of 5" — the shrunk trace's sizes are a fifth of the unshrunk ones.
func TestShrinkFactor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Jobs = 500
	cfg.Shrink = 1
	raw, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shrink = 5
	shrunk, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		want := raw[i].Input / 5
		if want < units.KB {
			want = units.KB
		}
		got := shrunk[i].Input
		// Rounding of the float division allows ±1 byte.
		if got < want-1 || got > want+1 {
			t.Fatalf("job %d: shrunk %d, want ≈%d", i, got, want)
		}
	}
}

func TestArrivalsSortedAndSpread(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Jobs = 3000
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Submit < jobs[i-1].Submit {
			t.Fatal("arrivals not sorted")
		}
	}
	last := jobs[len(jobs)-1].Submit
	// Bursty Poisson arrivals over 24h: the last arrival lands near the
	// window end; burst clumping adds variance.
	if last < 15*time.Hour || last > 33*time.Hour {
		t.Errorf("last arrival %v, want ≈24h", last)
	}
}

func TestAppMixUsed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Jobs = 5000
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	known := 0
	for _, j := range jobs {
		counts[j.App.Name]++
		if j.RatioKnown {
			known++
		}
	}
	for _, w := range cfg.AppMix {
		if counts[w.App.Name] == 0 {
			t.Errorf("app %s never sampled", w.App.Name)
		}
	}
	frac := float64(known) / float64(len(jobs))
	if math.Abs(frac-(1-cfg.UnknownRatioFraction)) > 0.02 {
		t.Errorf("known-ratio fraction %v, want ≈%v", frac, 1-cfg.UnknownRatioFraction)
	}
}

func TestValidateErrors(t *testing.T) {
	mut := func(f func(*Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no jobs", mut(func(c *Config) { c.Jobs = 0 })},
		{"no duration", mut(func(c *Config) { c.Duration = 0 })},
		{"no bands", mut(func(c *Config) { c.Bands = nil })},
		{"bad band", mut(func(c *Config) { c.Bands[0].Lo = 0 })},
		{"no mix", mut(func(c *Config) { c.AppMix = nil })},
		{"negative weight", mut(func(c *Config) { c.AppMix[0].Weight = -1 })},
		{"negative shrink", mut(func(c *Config) { c.Shrink = -1 })},
		{"bad unknown fraction", mut(func(c *Config) { c.UnknownRatioFraction = 2 })},
	}
	for _, tt := range cases {
		if err := tt.cfg.Validate(); err == nil {
			t.Errorf("%s: Validate succeeded", tt.name)
		}
		if _, err := Generate(tt.cfg); err == nil {
			t.Errorf("%s: Generate succeeded", tt.name)
		}
	}
}

func TestInputCDF(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Jobs = 1000
	jobs, _ := Generate(cfg)
	cdf := InputCDF(jobs)
	if cdf.Len() != 1000 {
		t.Fatalf("CDF has %d samples", cdf.Len())
	}
	if cdf.Min() < float64(units.KB) {
		t.Errorf("min %v below the 1KB floor", cdf.Min())
	}
}

func roundTripJobs(t *testing.T, n int) []Job {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Jobs = n
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func TestJSONRoundTrip(t *testing.T) {
	jobs := roundTripJobs(t, 50)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	compareJobs(t, jobs, got)
}

func TestCSVRoundTrip(t *testing.T) {
	jobs := roundTripJobs(t, 50)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	compareJobs(t, jobs, got)
}

func compareJobs(t *testing.T, want, got []Job) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("round trip: %d jobs, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.ID != g.ID || w.App.Name != g.App.Name || w.Input != g.Input ||
			w.Nominal != g.Nominal || w.RatioKnown != g.RatioKnown ||
			w.MapTasks != g.MapTasks {
			t.Fatalf("job %d mismatch: %+v vs %+v", i, w, g)
		}
		// Submit is serialized at millisecond resolution.
		if d := w.Submit - g.Submit; d < -time.Millisecond || d > time.Millisecond {
			t.Fatalf("job %d submit drift %v", i, d)
		}
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{not json")); err == nil {
		t.Error("bad JSON accepted")
	}
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty CSV accepted")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n1,2\n")); err == nil {
		t.Error("bad header accepted")
	}
	if _, err := ReadCSV(strings.NewReader("id,app,input_bytes,nominal_bytes,submit_ms,ratio_known,map_tasks\nj,grep,zzz,0,0,true,0\n")); err == nil {
		t.Error("bad size accepted")
	}
	if _, err := ReadCSV(strings.NewReader("id,app,input_bytes,nominal_bytes,submit_ms,ratio_known,map_tasks\nj,nope,1,0,0,true,0\n")); err == nil {
		t.Error("unknown app accepted")
	}
	dupe := "id,app,input_bytes,nominal_bytes,submit_ms,ratio_known,map_tasks\nj,grep,1024,0,0,true,0\nj,grep,1024,0,1,true,0\n"
	if _, err := ReadCSV(strings.NewReader(dupe)); err == nil {
		t.Error("duplicate id accepted")
	}
	neg := "id,app,input_bytes,nominal_bytes,submit_ms,ratio_known,map_tasks\nj,grep,1024,0,-5,true,0\n"
	if _, err := ReadCSV(strings.NewReader(neg)); err == nil {
		t.Error("negative submit accepted")
	}
}

// A submit time too large for a time.Duration is rejected by both readers,
// naming the job, rather than wrapping to a negative arrival; the largest
// representable one is accepted.
func TestReadRejectsSubmitOverflow(t *testing.T) {
	const over = "9300000000000" // ms; × 1e6 ns overflows int64
	jsonText := `[{"id":"a","app":"grep","input_bytes":1000,"submit_ms":` + over + `}]`
	csvText := "id,app,input_bytes,nominal_bytes,submit_ms,ratio_known,map_tasks\na,grep,1000,0," + over + ",false,0\n"
	for name, read := range map[string]func() ([]Job, error){
		"json": func() ([]Job, error) { return ReadJSON(strings.NewReader(jsonText)) },
		"csv":  func() ([]Job, error) { return ReadCSV(strings.NewReader(csvText)) },
	} {
		jobs, err := read()
		if err == nil {
			t.Errorf("%s: overflowing submit time accepted as %v", name, jobs[0].Submit)
		} else if !strings.Contains(err.Error(), "job a") {
			t.Errorf("%s: error %q does not name the job", name, err)
		}
	}
	edge := fmt.Sprintf(`[{"id":"a","app":"grep","input_bytes":1000,"submit_ms":%d}]`, maxSubmitMS)
	jobs, err := ReadJSON(strings.NewReader(edge))
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].Submit <= 0 {
		t.Errorf("largest representable submit time read as %v", jobs[0].Submit)
	}
}

// Reading a trace always yields jobs sorted by submission.
func TestReadSorts(t *testing.T) {
	csvText := "id,app,input_bytes,nominal_bytes,submit_ms,ratio_known,map_tasks\n" +
		"b,grep,1024,0,5000,true,0\n" +
		"a,grep,1024,0,1000,true,0\n"
	jobs, err := ReadCSV(strings.NewReader(csvText))
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].ID != "a" || jobs[1].ID != "b" {
		t.Errorf("order = %s, %s", jobs[0].ID, jobs[1].ID)
	}
}
