package core

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"hybridmr/internal/mapreduce"
	"hybridmr/internal/stats"
	"hybridmr/internal/workload"
)

// TestDumpTrace prints the §V trace experiment's headline numbers for
// manual review. Run with: go test ./internal/core -run DumpTrace -v
func TestDumpTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("dump only")
	}
	cal := mapreduce.DefaultCalibration()
	hybrid, err := NewHybrid(cal)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultConfig()
	cfg.Jobs = 6000
	cfg.Duration = 24 * time.Hour
	if h := os.Getenv("DUMP_HOURS"); h != "" {
		v, _ := strconv.Atoi(h)
		cfg.Duration = time.Duration(v) * time.Hour
	}
	if b := os.Getenv("DUMP_BURST"); b != "" {
		v, _ := strconv.ParseFloat(b, 64)
		cfg.BurstFraction = v
	}
	jobs, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// up[i] is Algorithm 1's class for jobs[i].
	up := make([]bool, len(jobs))
	nOut := 0
	for i, j := range jobs {
		up[i] = hybrid.Sched.Decide(j) == ScaleUp
		if !up[i] {
			nOut++
		}
	}
	fmt.Printf("jobs: %d scale-up, %d scale-out (%.1f%% scale-out)\n",
		len(jobs)-nOut, nOut, 100*float64(nOut)/float64(len(jobs)))

	hy := hybrid.Run(jobs)
	th, _ := mapreduce.NewTHadoop(cal)
	rh, _ := mapreduce.NewRHadoop(cal)
	thRes := RunBaseline(th, jobs, mapreduce.Fair)
	rhRes := RunBaseline(rh, jobs, mapreduce.Fair)

	// Each replay's exec seconds go into a column aligned with jobs (results
	// come back in arrival order), so the CDFs add samples in trace order
	// and the printed means do not depend on map iteration.
	column := func(name string, n int, at func(i int) mapreduce.Result) []float64 {
		if n != len(jobs) {
			t.Fatalf("%s: %d results for %d jobs", name, n, len(jobs))
		}
		col := make([]float64, n)
		for i := range col {
			r := at(i)
			if r.Err != nil {
				t.Fatalf("%s job %s failed: %v", name, r.Job.ID, r.Err)
			}
			if r.Job.ID != jobs[i].ID {
				t.Fatalf("%s result %d is job %s, want %s", name, i, r.Job.ID, jobs[i].ID)
			}
			col[i] = r.Exec.Seconds()
		}
		return col
	}
	report := func(name string, exec []float64) {
		upCDF, outCDF := stats.NewCDF(nil), stats.NewCDF(nil)
		for i, e := range exec {
			if up[i] {
				upCDF.Add(e)
			} else {
				outCDF.Add(e)
			}
		}
		fmt.Printf("%-8s scale-up jobs: %s\n", name, upCDF.Summarize())
		fmt.Printf("%-8s scale-out jobs: %s\n", name, outCDF.Summarize())
	}
	report("Hybrid", column("hybrid", len(hy), func(i int) mapreduce.Result { return hy[i].Result }))
	report("THadoop", column("THadoop", len(thRes), func(i int) mapreduce.Result { return thRes[i] }))
	report("RHadoop", column("RHadoop", len(rhRes), func(i int) mapreduce.Result { return rhRes[i] }))
}
