package obs

import (
	"io"
	"time"
)

// Span is one recorded interval (or instant) of a job's lifecycle on one
// cluster. Start and End are simulated-time offsets from the replay's start.
type Span struct {
	// Track groups spans, normally by platform name ("THadoop", "RHadoop").
	Track string
	// ID subdivides a track, normally by job ID.
	ID string
	// Name is the phase or event name ("job", "setup", "map", "shuffle",
	// "reduce", "task-retry", "machines-crash", ...).
	Name string
	// Start and End bound the interval in simulated time. For an instant
	// they are equal.
	Start, End time.Duration
	// Detail is optional free-form context, empty for most spans.
	Detail string
	// Instant marks a point event rather than an interval.
	Instant bool
}

// Tracer accumulates spans in emission order. The simulator is single-
// threaded, so no locking is needed; attach one Tracer per replay (the
// serial-vs-parallel guard relies on each replay owning its own).
//
// A nil *Tracer is a valid no-op sink: every method returns immediately
// without allocating.
type Tracer struct {
	spans []Span
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Enabled reports whether spans are being recorded. Callers use it to skip
// building detail strings on the nil path.
func (t *Tracer) Enabled() bool { return t != nil }

// Span records a completed interval.
func (t *Tracer) Span(track, id, name string, start, end time.Duration) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, Span{Track: track, ID: id, Name: name, Start: start, End: end})
}

// SpanDetail records a completed interval with a detail string.
func (t *Tracer) SpanDetail(track, id, name string, start, end time.Duration, detail string) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, Span{Track: track, ID: id, Name: name, Start: start, End: end, Detail: detail})
}

// Instant records a point event.
func (t *Tracer) Instant(track, id, name string, at time.Duration, detail string) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, Span{Track: track, ID: id, Name: name, Start: at, End: at, Detail: detail, Instant: true})
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// WriteJSONL writes one JSON object per span, in emission order:
//
//	{"kind":"span","track":"THadoop","id":"job00001","name":"map","start_ns":0,"end_ns":1000}
//	{"kind":"instant","track":"THadoop","id":"job00002","name":"task-retry","at_ns":1500,"detail":"..."}
//
// Timestamps are integer nanoseconds of simulated time; the detail field is
// omitted when empty. A nil tracer writes nothing.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	var b []byte
	for i := range t.spans {
		s := &t.spans[i]
		b = b[:0]
		b = append(b, '{')
		b = appendField(b, "kind")
		if s.Instant {
			b = append(b, `"instant"`...)
		} else {
			b = append(b, `"span"`...)
		}
		b = appendField(b, "track")
		b = appendJSONString(b, s.Track)
		b = appendField(b, "id")
		b = appendJSONString(b, s.ID)
		b = appendField(b, "name")
		b = appendJSONString(b, s.Name)
		if s.Instant {
			b = appendField(b, "at_ns")
			b = appendInt(b, int64(s.Start))
		} else {
			b = appendField(b, "start_ns")
			b = appendInt(b, int64(s.Start))
			b = appendField(b, "end_ns")
			b = appendInt(b, int64(s.End))
		}
		if s.Detail != "" {
			b = appendField(b, "detail")
			b = appendJSONString(b, s.Detail)
		}
		b = append(b, '}', '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// WriteChrome writes the spans as a Chrome trace_event document (load it at
// chrome://tracing or https://ui.perfetto.dev). Tracks become processes and
// IDs become threads, both numbered in first-appearance order with metadata
// events naming them; intervals become "X" complete events and instants "i"
// events. Timestamps are microseconds of simulated time.
func (t *Tracer) WriteChrome(w io.Writer) error {
	var b []byte
	b = append(b, `{"traceEvents":[`...)
	if t != nil {
		pids := make(map[string]int)
		tids := make(map[[2]string]int)
		nthreads := make(map[int]int)
		first := true
		sep := func() {
			if first {
				b = append(b, '\n')
				first = false
			} else {
				b = append(b, ',', '\n')
			}
		}
		for i := range t.spans {
			s := &t.spans[i]
			pid, ok := pids[s.Track]
			if !ok {
				pid = len(pids) + 1
				pids[s.Track] = pid
				sep()
				b = append(b, `{"ph":"M","pid":`...)
				b = appendInt(b, int64(pid))
				b = append(b, `,"name":"process_name","args":{"name":`...)
				b = appendJSONString(b, s.Track)
				b = append(b, `}}`...)
			}
			tk := [2]string{s.Track, s.ID}
			tid, ok := tids[tk]
			if !ok {
				nthreads[pid]++
				tid = nthreads[pid]
				tids[tk] = tid
				sep()
				b = append(b, `{"ph":"M","pid":`...)
				b = appendInt(b, int64(pid))
				b = append(b, `,"tid":`...)
				b = appendInt(b, int64(tid))
				b = append(b, `,"name":"thread_name","args":{"name":`...)
				b = appendJSONString(b, s.ID)
				b = append(b, `}}`...)
			}
			sep()
			if s.Instant {
				b = append(b, `{"ph":"i","pid":`...)
				b = appendInt(b, int64(pid))
				b = append(b, `,"tid":`...)
				b = appendInt(b, int64(tid))
				b = append(b, `,"ts":`...)
				b = appendMicros(b, int64(s.Start))
				b = append(b, `,"s":"t","name":`...)
				b = appendJSONString(b, s.Name)
			} else {
				b = append(b, `{"ph":"X","pid":`...)
				b = appendInt(b, int64(pid))
				b = append(b, `,"tid":`...)
				b = appendInt(b, int64(tid))
				b = append(b, `,"ts":`...)
				b = appendMicros(b, int64(s.Start))
				b = append(b, `,"dur":`...)
				b = appendMicros(b, int64(s.End-s.Start))
				b = append(b, `,"name":`...)
				b = appendJSONString(b, s.Name)
			}
			if s.Detail != "" {
				b = append(b, `,"args":{"detail":`...)
				b = appendJSONString(b, s.Detail)
				b = append(b, '}')
			}
			b = append(b, '}')
			// Flush periodically so a large trace does not hold the whole
			// document in memory.
			if len(b) >= 1<<16 {
				if _, err := w.Write(b); err != nil {
					return err
				}
				b = b[:0]
			}
		}
		if !first {
			b = append(b, '\n')
		}
	}
	b = append(b, `]}`...)
	b = append(b, '\n')
	_, err := w.Write(b)
	return err
}
