package figures

import (
	"strings"
	"testing"
	"time"

	"hybridmr/internal/core"
	"hybridmr/internal/mapreduce"
	"hybridmr/internal/workload"
)

func cal() mapreduce.Calibration { return mapreduce.DefaultCalibration() }

// smallTraceConfig keeps the trace experiment fast in unit tests while
// preserving the full workload's arrival rate.
func smallTraceConfig(jobs int) workload.Config {
	cfg := workload.DefaultConfig()
	cfg.Jobs = jobs
	cfg.Duration = time.Duration(float64(24*time.Hour) * float64(jobs) / 6000)
	return cfg
}

func TestTableI(t *testing.T) {
	tab := TableI()
	out := tab.Render()
	for _, want := range []string{"up-OFS", "up-HDFS", "out-OFS", "out-HDFS", "Table I"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
	if len(tab.Rows) < 4 {
		t.Errorf("Table I has %d rows", len(tab.Rows))
	}
}

func TestFig3(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Jobs = 6000
	fig, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Panels) != 1 || len(fig.Panels[0].Series) != 1 {
		t.Fatalf("Fig3 shape: %+v", fig.Panels)
	}
	s := fig.Panels[0].Series[0]
	if len(s.X) != 16 {
		t.Errorf("%d decade probes, want 16", len(s.X))
	}
	// CDF is monotone from 0 to 1.
	for i := 1; i < len(s.Y); i++ {
		if s.Y[i] < s.Y[i-1] {
			t.Fatalf("CDF not monotone at %d", i)
		}
	}
	if s.Y[0] != 0 || s.Y[len(s.Y)-1] != 1 {
		t.Errorf("CDF range [%v, %v]", s.Y[0], s.Y[len(s.Y)-1])
	}
	// The paper's anchor fractions are in the notes.
	joined := strings.Join(fig.Notes, "\n")
	for _, want := range []string{"below 1 MB", "between 1 MB and 30 GB", "above 30 GB"} {
		if !strings.Contains(joined, want) {
			t.Errorf("Fig3 notes missing %q", want)
		}
	}
	if fig.Render() == "" {
		t.Error("empty render")
	}
}

func TestFig5Shape(t *testing.T) {
	fig, err := Fig5(cal())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Panels) != 4 {
		t.Fatalf("Fig5 has %d panels, want 4 (a–d as in the paper)", len(fig.Panels))
	}
	for _, p := range fig.Panels {
		if len(p.Series) != 4 {
			t.Fatalf("panel %q has %d series, want the 4 architectures", p.Name, len(p.Series))
		}
	}
	// The up-OFS normalized execution series is identically 1.
	for _, s := range fig.Panels[0].Series {
		if s.Name != "up-OFS" {
			continue
		}
		for i, y := range s.Y {
			if y < 0.999 || y > 1.001 {
				t.Errorf("up-OFS normalized exec[%d] = %v, want 1", i, y)
			}
		}
	}
	// up-HDFS stops at its capacity limit: fewer points than the grid.
	for _, s := range fig.Panels[0].Series {
		if s.Name == "up-HDFS" && len(s.X) >= len(ShuffleIntensiveSizesGB) {
			t.Errorf("up-HDFS has %d points; capacity should cut the series", len(s.X))
		}
		if s.Name == "out-OFS" && len(s.X) != len(ShuffleIntensiveSizesGB) {
			t.Errorf("out-OFS has %d points, want %d", len(s.X), len(ShuffleIntensiveSizesGB))
		}
	}
	if !strings.Contains(fig.Render(), "Fig. 5") {
		t.Error("render missing figure id")
	}
}

func TestFig6AndFig9Shape(t *testing.T) {
	for _, build := range []struct {
		name string
		fn   func(mapreduce.Calibration) (interface{ Render() string }, error)
	}{
		{"Fig6", func(c mapreduce.Calibration) (interface{ Render() string }, error) {
			f, err := Fig6(c)
			return f, err
		}},
		{"Fig9", func(c mapreduce.Calibration) (interface{ Render() string }, error) {
			f, err := Fig9(c)
			return f, err
		}},
	} {
		f, err := build.fn(cal())
		if err != nil {
			t.Fatalf("%s: %v", build.name, err)
		}
		if f.Render() == "" {
			t.Errorf("%s: empty render", build.name)
		}
	}
}

// Fig. 7's ratio series fall with input size and the cross points appear in
// the notes near the paper's values.
func TestFig7(t *testing.T) {
	fig, err := Fig7(cal())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Panels) != 1 || len(fig.Panels[0].Series) != 2 {
		t.Fatalf("Fig7 shape: %d panels", len(fig.Panels))
	}
	for _, s := range fig.Panels[0].Series {
		first, last := s.Y[0], s.Y[len(s.Y)-1]
		if first <= 1 {
			t.Errorf("%s: ratio at smallest size %v, want > 1", s.Name, first)
		}
		if last >= 1 {
			t.Errorf("%s: ratio at largest size %v, want < 1", s.Name, last)
		}
	}
	notes := strings.Join(fig.Notes, "\n")
	if !strings.Contains(notes, "wordcount cross point") || !strings.Contains(notes, "grep cross point") {
		t.Errorf("Fig7 notes: %v", fig.Notes)
	}
}

func TestFig8(t *testing.T) {
	fig, err := Fig8(cal())
	if err != nil {
		t.Fatal(err)
	}
	notes := strings.Join(fig.Notes, "\n")
	if !strings.Contains(notes, "dfsio-write cross point") {
		t.Errorf("Fig8 notes: %v", fig.Notes)
	}
}

func TestFig4(t *testing.T) {
	fig, err := Fig4(cal())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Panels) != 1 || len(fig.Panels[0].Series) != 2 {
		t.Fatalf("Fig4 shape")
	}
	up := fig.Panels[0].Series[0]
	out := fig.Panels[0].Series[1]
	// The curves cross: up starts below and ends above.
	if !(up.Y[0] < out.Y[0]) {
		t.Errorf("smallest size: up %v not below out %v", up.Y[0], out.Y[0])
	}
	n := len(up.Y) - 1
	if !(up.Y[n] > out.Y[n]) {
		t.Errorf("largest size: up %v not above out %v", up.Y[n], out.Y[n])
	}
}

func TestRunTraceAndFig10(t *testing.T) {
	cfg := smallTraceConfig(1200)
	tr, err := RunTrace(cal(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) != 1200 {
		t.Fatalf("%d jobs", len(tr.Jobs))
	}
	if len(tr.Hybrid) != 1200 || len(tr.THadoop) != 1200 || len(tr.RHadoop) != 1200 {
		t.Fatal("missing results")
	}
	// The maps hold what each replay gives every job by ID: the hybrid on
	// its shared clock and each baseline on its own.
	setup, err := SharedSetup(cal(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		name string
		got  map[string]float64
		rs   []mapreduce.Result
	}{
		{"THadoop", tr.THadoop, core.RunBaseline(setup.THadoop, setup.Jobs, mapreduce.Fair)},
		{"RHadoop", tr.RHadoop, core.RunBaseline(setup.RHadoop, setup.Jobs, mapreduce.Fair)},
	} {
		for _, r := range want.rs {
			if got := want.got[r.Job.ID]; got != r.Exec.Seconds() {
				t.Fatalf("%s job %s: %vs, replay gives %vs", want.name, r.Job.ID, got, r.Exec.Seconds())
			}
		}
	}
	for _, r := range setup.Hybrid.Run(setup.Jobs) {
		if got := tr.Hybrid[r.Job.ID]; got != r.Exec.Seconds() {
			t.Fatalf("hybrid job %s: %vs, shared clock gives %vs", r.Job.ID, got, r.Exec.Seconds())
		}
		if tr.UpClass[r.Job.ID] != (r.Target == core.ScaleUp) {
			t.Fatalf("job %s: UpClass %v, routed %v", r.Job.ID, tr.UpClass[r.Job.ID], r.Target)
		}
	}
	upCDF := tr.ClassCDF(tr.Hybrid, true)
	outCDF := tr.ClassCDF(tr.Hybrid, false)
	if upCDF.Len()+outCDF.Len() != 1200 {
		t.Errorf("class split %d + %d", upCDF.Len(), outCDF.Len())
	}
	fig, err := Fig10(cal(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Panels) != 2 {
		t.Fatalf("Fig10 has %d panels", len(fig.Panels))
	}
	out := fig.Render()
	for _, want := range []string{"scale-up jobs", "scale-out jobs", "Hybrid", "THadoop", "RHadoop"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig10 render missing %q", want)
		}
	}
}

// The raw variants report absolute seconds in panels a and b.
func TestRawVariants(t *testing.T) {
	fig, err := Fig5Raw(cal())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig.Panels[0].Name, "(s)") {
		t.Errorf("raw panel a name = %q", fig.Panels[0].Name)
	}
	// Raw exec times grow with input size for every architecture.
	for _, s := range fig.Panels[0].Series {
		if len(s.Y) < 2 {
			t.Fatalf("series %s too short", s.Name)
		}
		if s.Y[len(s.Y)-1] <= s.Y[0] {
			t.Errorf("%s raw exec not growing: %v .. %v", s.Name, s.Y[0], s.Y[len(s.Y)-1])
		}
	}
	if _, err := Fig6Raw(cal()); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig9Raw(cal()); err != nil {
		t.Fatal(err)
	}
}

func TestPlatformsComplete(t *testing.T) {
	ps, err := Platforms(cal())
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 4 {
		t.Fatalf("%d platforms", len(ps))
	}
	for _, a := range mapreduce.Arches() {
		if ps[a] == nil || ps[a].Name != a.String() {
			t.Errorf("platform %v missing or misnamed", a)
		}
	}
}
