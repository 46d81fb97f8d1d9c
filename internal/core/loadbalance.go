package core

import "hybridmr/internal/mapreduce"

// divertQueueFactor is the load balancer's queue-pressure threshold: a
// cluster counts as overloaded when its queued map tasks exceed this factor
// times its map-slot count, that is, once more than a full extra wave is
// already waiting.
const divertQueueFactor = 1.0

// divert is the load balancer, the extension the paper leaves as future
// work (§VII): "if many small jobs arrive at the same time without any large
// jobs, all the jobs will be scheduled to the scale-up machines, resulting
// in imbalance allocation of resources". At each job's arrival it reads both
// halves' map-slot queues and returns the cluster the job should actually
// run on. It only moves a scale-up job, and only when the scale-up queue is
// past the threshold and the scale-out one is strictly less loaded. A
// scale-out job never moves: a large job on the small scale-up cluster can
// block every later small job, which is what the hybrid exists to avoid.
func divert(preferred Target, upSim, outSim *mapreduce.Simulator) Target {
	if preferred != ScaleUp {
		return preferred
	}
	upP, outP := pressure(upSim), pressure(outSim)
	if upP > divertQueueFactor && outP < upP {
		return ScaleOut
	}
	return preferred
}

// pressure is the map queue depth normalized by the map-slot count.
func pressure(sim *mapreduce.Simulator) float64 {
	slots := sim.MapSlotCapacity()
	if slots <= 0 {
		return 0
	}
	return float64(sim.MapQueueDepth()) / float64(slots)
}
