package mapreduce

import (
	"strconv"
	"time"

	"hybridmr/internal/obs"
)

// simObs bundles one simulator's observability sinks: the tracer plus the
// metric handles registered for its platform. The zero value — and the state
// a Config with no Trace and no Metrics builds — is fully inert: every handle is nil and every
// record call is a no-op that neither allocates nor branches beyond one nil
// check, which is what keeps the zero-alloc kernel budget with observability
// off.
type simObs struct {
	trace *obs.Tracer
	track string

	started      [nKinds]*obs.Counter // map / reduce attempts started
	taskRetries  *obs.Counter
	jobsDone     *obs.Counter
	jobsFailed   *obs.Counter
	bytesInput   *obs.Counter
	bytesShuffle *obs.Counter
	busy         [nKinds]*obs.Gauge // busy map / reduce slots
	mapQueue     *obs.Gauge
	execSeconds  *obs.Histogram
}

// execBounds buckets job makespans (seconds of simulated time) from
// interactive small jobs to day-scale stragglers.
var execBounds = []float64{10, 30, 60, 300, 1800, 3600, 6 * 3600, 24 * 3600}

// observe attaches a span tracer and a metrics registry (Config.Trace and
// Config.Metrics) at construction. Either (or both) may be nil; two nils
// leave the inert state. Metric names are prefixed with the platform name,
// so the two halves of a hybrid sharing one registry stay distinct;
// registration order is the construction order, which the registry's
// snapshot preserves.
func (s *Simulator) observe(tr *obs.Tracer, reg *obs.Registry) {
	name := s.platform.Name
	if reg == nil {
		// No registry: build no metric names, so attaching (or
		// detaching) a nil observer allocates nothing.
		s.obsv = simObs{trace: tr, track: name}
		return
	}
	s.obsv = simObs{
		trace:        tr,
		track:        name,
		started:      [nKinds]*obs.Counter{reg.Counter(name + ".tasks.map.started"), reg.Counter(name + ".tasks.reduce.started")},
		taskRetries:  reg.Counter(name + ".tasks.retries"),
		jobsDone:     reg.Counter(name + ".jobs.done"),
		jobsFailed:   reg.Counter(name + ".jobs.failed"),
		bytesInput:   reg.Counter(name + ".bytes.input"),
		bytesShuffle: reg.Counter(name + ".bytes.shuffle"),
		busy:         [nKinds]*obs.Gauge{reg.Gauge(name + ".slots.map.busy"), reg.Gauge(name + ".slots.reduce.busy")},
		mapQueue:     reg.Gauge(name + ".queue.map.depth"),
		execSeconds:  reg.Histogram(name+".job.exec.seconds", execBounds...),
	}
}

// noteSlots samples the slot-occupancy and queue-depth gauges. dispatch
// calls it on entry (queue depth peaks before slots are granted) and on exit
// (busy slots peak after), so the gauges' high-water marks bracket every
// transition.
func (s *Simulator) noteSlots() {
	if s.obsv.mapQueue == nil {
		return // no registry: every gauge is nil
	}
	for k := range nKinds {
		s.obsv.busy[k].Set(int64(s.slots[k].cap - s.slots[k].free))
	}
	s.obsv.mapQueue.Set(int64(s.MapQueueDepth()))
}

// traceRetry records one task re-execution (injected failure or crash kill).
func (s *Simulator) traceRetry(run *jobRun, taskID, kind int, now time.Duration, cause string) {
	s.obsv.taskRetries.Inc()
	if !s.obsv.trace.Enabled() {
		return
	}
	s.obsv.trace.Instant(s.obsv.track, run.job.ID, "task-retry", now,
		cause+" "+kindName[kind]+" task "+strconv.Itoa(taskID))
}

// traceJobDone records the job's phase spans and completion metrics. The
// reduce span runs from shuffle end to completion; the enclosing job span
// covers submission to completion, so queueing and setup are visible as the
// gap before the first map.
func (s *Simulator) traceJobDone(run *jobRun, end time.Duration) {
	s.obsv.jobsDone.Inc()
	s.obsv.bytesInput.Add(int64(run.job.Input))
	s.obsv.bytesShuffle.Add(int64(run.job.App.ShuffleInputRatio.Apply(run.job.Input)))
	s.obsv.execSeconds.Observe((end - run.submit).Seconds())
	if !s.obsv.trace.Enabled() {
		return
	}
	tr, track, id := s.obsv.trace, s.obsv.track, run.job.ID
	tr.Span(track, id, "reduce", run.shuffleDone, end)
	tr.SpanDetail(track, id, "job", run.submit, end,
		run.job.App.Name+" input="+run.job.Input.String()+
			" maps="+strconv.Itoa(run.pl.mapTasks)+
			" waves="+strconv.Itoa(run.pl.mapWaves)+
			" reducers="+strconv.Itoa(run.pl.reducers)+
			" retries="+strconv.Itoa(run.retries))
}

// traceJobFailed records a failed job's truncated span and failure instant.
func (s *Simulator) traceJobFailed(run *jobRun, now time.Duration, phase string) {
	s.obsv.jobsFailed.Inc()
	if !s.obsv.trace.Enabled() {
		return
	}
	tr, track, id := s.obsv.trace, s.obsv.track, run.job.ID
	tr.Instant(track, id, "job-failed", now, phase+" task exceeded max attempts")
	tr.SpanDetail(track, id, "job", run.submit, now, "failed in "+phase+" phase")
}

// traceJobRejected records a job the planner refused (capacity).
func (s *Simulator) traceJobRejected(job Job, now time.Duration, err error) {
	s.obsv.jobsFailed.Inc()
	if !s.obsv.trace.Enabled() {
		return
	}
	s.obsv.trace.Instant(s.obsv.track, job.ID, "job-rejected", now, err.Error())
}

// traceFault records a cluster-level health transition on the platform's
// own pseudo-thread.
func (s *Simulator) traceFault(name string, now time.Duration, detail string) {
	if !s.obsv.trace.Enabled() {
		return
	}
	s.obsv.trace.Instant(s.obsv.track, "cluster", name, now, detail)
}
