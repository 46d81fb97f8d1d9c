package core

import (
	"testing"
	"time"

	"hybridmr/internal/apps"
	"hybridmr/internal/mapreduce"
	"hybridmr/internal/units"
	"hybridmr/internal/workload"
)

// The paper's §VII scenario: "if many small jobs arrive at the same time
// without any large jobs, all the jobs will be scheduled to the scale-up
// machines, resulting in imbalance". With the balancer, some of that burst
// runs on the idle scale-out cluster and the burst drains faster.
func TestBalancerDivertsUnderBurst(t *testing.T) {
	burst := make([]workload.Job, 120)
	for i := range burst {
		burst[i] = workload.Job{
			ID:         "b" + string(rune('0'+i/100)) + string(rune('0'+(i/10)%10)) + string(rune('0'+i%10)),
			App:        apps.Grep(),
			Input:      4 * units.GB, // scale-up targeted, 32 tasks each
			Submit:     time.Duration(i) * 200 * time.Millisecond,
			RatioKnown: true,
		}
	}

	plain := newHybridT(t)
	plainRes := plain.Run(burst)

	balanced := newHybridT(t)
	balanced.Balance = true
	balRes := balanced.Run(burst)

	var diverted int
	for _, r := range balRes {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Job.ID, r.Err)
		}
		if r.Diverted {
			diverted++
			if r.Target != ScaleUp || r.Platform != balanced.Out.Name {
				t.Errorf("diverted job %s: target %v, ran on %s", r.Job.ID, r.Target, r.Platform)
			}
		}
	}
	if diverted == 0 {
		t.Fatal("burst of 120 scale-up jobs diverted nothing")
	}
	if diverted == len(burst) {
		t.Fatal("balancer diverted everything")
	}
	maxEnd := func(rs []JobResult) time.Duration {
		var m time.Duration
		for _, r := range rs {
			if r.End > m {
				m = r.End
			}
		}
		return m
	}
	if maxEnd(balRes) >= maxEnd(plainRes) {
		t.Errorf("balanced makespan %v not below plain %v", maxEnd(balRes), maxEnd(plainRes))
	}
}

// Without pressure, the balancer never interferes.
func TestBalancerIdleNoDiversion(t *testing.T) {
	h := newHybridT(t)
	h.Balance = true
	jobs := []workload.Job{
		{ID: "a", App: apps.Grep(), Input: units.GB, RatioKnown: true},
		{ID: "b", App: apps.Wordcount(), Input: 64 * units.GB, Submit: time.Minute, RatioKnown: true},
	}
	for _, r := range h.Run(jobs) {
		if r.Diverted {
			t.Errorf("job %s diverted on an idle cluster", r.Job.ID)
		}
	}
}

// The balancer diverts one way only: a scale-out job stays on a saturated
// scale-out cluster even when the scale-up cluster is idle.
func TestBalancerBothWays(t *testing.T) {
	up, out := upOutPlatforms(t)
	st := mapreduce.NewReplayState()
	upSim, _ := testSim(st, up)
	outSim, drain := testSim(st, out)
	// Queue pressure on the out cluster: 50 big jobs at time 0, and the
	// balancer consulted 30 s in, while their maps still wait for slots.
	const n = 50
	for i := 0; i < n; i++ {
		outSim.Submit(mapreduce.Job{ID: string(rune('a' + i)), App: apps.Wordcount(), Input: 64 * units.GB})
	}
	checked := false
	st.Engine().At(30*time.Second, func(time.Duration) {
		checked = true
		if p := pressure(outSim); p <= divertQueueFactor || pressure(upSim) >= p {
			t.Fatalf("out pressure %v, up pressure %v: want out saturated and up less loaded", p, pressure(upSim))
		}
		if got := divert(ScaleOut, upSim, outSim); got != ScaleOut {
			t.Errorf("balancer diverted a scale-out job to %v", got)
		}
	})
	if res := drain(); !checked || len(res) != n {
		t.Errorf("balancer checked %v; %d of %d jobs finished", checked, len(res), n)
	}
}
