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
	isUp := make(map[string]bool, len(jobs))
	nOut := 0
	for _, j := range jobs {
		isUp[j.ID] = hybrid.Sched.Decide(j) == ScaleUp
		if !isUp[j.ID] {
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

	report := func(name string, exec map[string]float64) {
		up, out := stats.NewCDF(nil), stats.NewCDF(nil)
		for id, e := range exec {
			if isUp[id] {
				up.Add(e)
			} else {
				out.Add(e)
			}
		}
		su, so := up.Summarize(), out.Summarize()
		fmt.Printf("%-8s scale-up jobs: %s\n", name, su)
		fmt.Printf("%-8s scale-out jobs: %s\n", name, so)
	}
	collect := func(rs []mapreduce.Result) map[string]float64 {
		m := make(map[string]float64, len(rs))
		for _, r := range rs {
			if r.Err != nil {
				t.Fatalf("job %s failed: %v", r.Job.ID, r.Err)
			}
			m[r.Job.ID] = r.Exec.Seconds()
		}
		return m
	}
	hyExec := make(map[string]float64, len(hy))
	for _, r := range hy {
		if r.Err != nil {
			t.Fatalf("hybrid job %s failed: %v", r.Job.ID, r.Err)
		}
		hyExec[r.Job.ID] = r.Exec.Seconds()
	}
	report("Hybrid", hyExec)
	report("THadoop", collect(thRes))
	report("RHadoop", collect(rhRes))
}
