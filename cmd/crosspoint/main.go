// Command crosspoint reruns the paper's cross-point measurement methodology
// (§IV): sweep each representative application over both clusters, locate
// the sizes where the scale-out cluster takes over, and print the resulting
// Algorithm 1 threshold table.
//
// Usage:
//
//	crosspoint            # measure and print the threshold table
//	crosspoint -sweep     # also print the full ratio curves (Figs. 7, 8)
//	crosspoint -metrics m.json   # also export sweep-cache hit/miss counters
//
// Gray what-if: -degrade 'nic=F,rack=F' remeasures the cross points on
// platforms whose network fabric runs under a persistent gray throttle,
// showing how silent degradation shifts (or inverts) Algorithm 1's
// scale-up/scale-out crossover sizes:
//
//	crosspoint -degrade nic=2
//	crosspoint -degrade nic=1.5,rack=4
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"

	"hybridmr/internal/core"
	"hybridmr/internal/figures"
	"hybridmr/internal/mapreduce"
	"hybridmr/internal/obs"
	"hybridmr/internal/sweep"
)

func main() {
	curves := flag.Bool("sweep", false, "print the full ratio curves")
	parallel := flag.Int("parallel", runtime.NumCPU(), "simulation worker count (1 = serial; output is identical either way)")
	metricsOut := flag.String("metrics", "", "write a metrics snapshot (JSON, sweep-cache counters) to this file")
	degrade := flag.String("degrade", "", "gray network throttle 'nic=F,rack=F' (factors ≥ 1) applied to both clusters before measuring")
	flag.Parse()
	sweep.SetDefaultWorkers(*parallel)
	nicSlow, rackSlow, err := parseDegrade(*degrade)
	if err != nil {
		fatal(err)
	}

	// The measurement's only metrics are the memoization counters: mirror
	// the default cache into a registry for the whole run. The totals are
	// deterministic regardless of -parallel (one miss per distinct point).
	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
		cache := sweep.Default().Cache()
		cache.Observe(reg.Counter("sweep.cache.hits"), reg.Counter("sweep.cache.misses"))
		defer cache.Observe(nil, nil)
	}

	cal := mapreduce.DefaultCalibration()
	up, err := mapreduce.NewArch(mapreduce.UpOFS, cal)
	if err != nil {
		fatal(err)
	}
	out, err := mapreduce.NewArch(mapreduce.OutOFS, cal)
	if err != nil {
		fatal(err)
	}
	if nicSlow != 1 || rackSlow != 1 {
		if up, err = up.View(0, 0, nicSlow, rackSlow); err != nil {
			fatal(err)
		}
		if out, err = out.View(0, 0, nicSlow, rackSlow); err != nil {
			fatal(err)
		}
		fmt.Printf("gray throttle: nic ÷%g, bisection ÷%g on both clusters\n\n", nicSlow, rackSlow)
	}

	if *curves {
		for _, build := range []func(mapreduce.Calibration) (interface{ Render() string }, error){
			func(c mapreduce.Calibration) (interface{ Render() string }, error) { return figures.Fig7(c) },
			func(c mapreduce.Calibration) (interface{ Render() string }, error) { return figures.Fig8(c) },
		} {
			f, err := build(cal)
			if err != nil {
				fatal(err)
			}
			fmt.Println(f.Render())
		}
	}

	cp, err := core.MeasureCrossPoints(up, out)
	if err != nil {
		fatal(err)
	}
	paper := core.PaperCrossPoints()
	fmt.Println("Measured Algorithm 1 thresholds (paper values in parentheses):")
	fmt.Printf("  shuffle/input > %.1f:        input < %v  (paper: %v)\n",
		float64(cp.RatioHigh), cp.HighRatio, paper.HighRatio)
	fmt.Printf("  %.1f ≤ shuffle/input ≤ %.1f:  input < %v  (paper: %v)\n",
		float64(cp.RatioLow), float64(cp.RatioHigh), cp.MidRatio, paper.MidRatio)
	fmt.Printf("  shuffle/input < %.1f:        input < %v  (paper: %v)\n",
		float64(cp.RatioLow), cp.LowRatio, paper.LowRatio)

	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fatal(err)
		}
		if err := reg.WriteSnapshot(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

// parseDegrade parses the -degrade syntax 'nic=F,rack=F', either key
// optional. An empty spec means no throttle.
func parseDegrade(spec string) (nic, rack float64, err error) {
	nic, rack = 1, 1
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nic, rack, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return 0, 0, fmt.Errorf("-degrade %q: want key=factor", kv)
		}
		f, ferr := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if ferr != nil || !(f >= 1) || math.IsInf(f, 1) {
			return 0, 0, fmt.Errorf("-degrade %s=%q: want a finite factor ≥ 1", key, val)
		}
		switch strings.TrimSpace(key) {
		case "nic":
			nic = f
		case "rack":
			rack = f
		default:
			return 0, 0, fmt.Errorf("-degrade: unknown key %q (want nic=, rack=)", key)
		}
	}
	return nic, rack, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "crosspoint: %v\n", err)
	os.Exit(1)
}
