package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func TestTracerJSONL(t *testing.T) {
	tr := NewTracer()
	tr.Span("up", "job1", "map", 0, 2*time.Second)
	tr.SpanDetail("up", "job1", "shuffle", 2*time.Second, 3*time.Second, `q="deep"`)
	tr.Instant("out", "job2", "task-retry", 1500*time.Millisecond, "")

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"kind":"span","track":"up","id":"job1","name":"map","start_ns":0,"end_ns":2000000000}
{"kind":"span","track":"up","id":"job1","name":"shuffle","start_ns":2000000000,"end_ns":3000000000,"detail":"q=\"deep\""}
{"kind":"instant","track":"out","id":"job2","name":"task-retry","at_ns":1500000000}
`
	if got := buf.String(); got != want {
		t.Errorf("JSONL mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// Every line must be valid JSON.
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Errorf("line %q is not valid JSON: %v", line, err)
		}
	}
}

func TestTracerChrome(t *testing.T) {
	tr := NewTracer()
	tr.Span("up", "job1", "map", 0, 2*time.Second)
	tr.Span("out", "job2", "map", time.Second, 2*time.Second)
	tr.Instant("up", "job1", "crash", 500*time.Millisecond, "m=2")

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, buf.String())
	}
	// 2 process + 2 thread metadata events, 2 X spans, 1 instant.
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("got %d events, want 7:\n%s", len(doc.TraceEvents), buf.String())
	}
	// First span: pid 1 (track "up" seen first), ts 0, dur 2e6 µs.
	var sawSpan bool
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" && ev["name"] == "map" && ev["pid"] == float64(1) {
			sawSpan = true
			if ev["dur"] != float64(2e6) {
				t.Errorf("span dur = %v µs, want 2e6", ev["dur"])
			}
		}
		if ev["ph"] == "i" {
			if ev["s"] != "t" {
				t.Errorf("instant scope = %v, want t", ev["s"])
			}
			if args, ok := ev["args"].(map[string]any); !ok || args["detail"] != "m=2" {
				t.Errorf("instant args = %v", ev["args"])
			}
		}
	}
	if !sawSpan {
		t.Error("no X event for track up found")
	}
	// Determinism: a second export is byte-identical.
	var buf2 bytes.Buffer
	if err := tr.WriteChrome(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("two chrome exports of the same tracer differ")
	}
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	tr.Span("a", "b", "c", 0, 1)
	tr.Instant("a", "b", "c", 0, "")
	if tr.Len() != 0 {
		t.Error("nil tracer recorded spans")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil tracer JSONL wrote %q, err %v", buf.String(), err)
	}
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Errorf("nil tracer chrome export invalid: %v", err)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cache.hits")
	g := r.Gauge("slots.busy")
	h := r.Histogram("job.seconds", 1, 10)

	c.Add(41)
	c.Inc()
	g.Set(5)
	g.Add(-2)
	h.Observe(0.5)
	h.Observe(1.0) // inclusive upper bound: lands in the le:1 bucket
	h.Observe(100)

	var buf bytes.Buffer
	if err := r.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{
  "metrics": [
    {"name": "cache.hits", "kind": "counter", "value": 42},
    {"name": "slots.busy", "kind": "gauge", "value": 3, "max": 5},
    {"name": "job.seconds", "kind": "histogram", "count": 3, "sum": 101.5, "buckets": [{"le": 1, "count": 2}, {"le": 10, "count": 0}, {"le": "+Inf", "count": 1}]}
  ]
}
`
	if got := buf.String(); got != want {
		t.Errorf("snapshot mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Errorf("snapshot is not valid JSON: %v", err)
	}
}

func TestRegistryIdempotentAndMismatch(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x")
	c2 := r.Counter("x")
	if c1 != c2 {
		t.Error("re-registering a counter returned a different instance")
	}
	h1 := r.Histogram("h", 1, 2)
	if h2 := r.Histogram("h", 1, 2); h1 != h2 {
		t.Error("re-registering a histogram returned a different instance")
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
	for _, fn := range []func(){
		func() { r.Gauge("x") },
		func() { r.Histogram("x", 1) },
		func() { r.Histogram("h", 1, 3) },
		func() { r.Histogram("bad", 2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("mismatched registration did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestNilRegistry(t *testing.T) {
	var r *Registry
	c := r.Counter("a")
	g := r.Gauge("b")
	h := r.Histogram("c", 1)
	c.Inc()
	g.Set(3)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || g.Max() != 0 || h.Count() != 0 {
		t.Error("nil instruments recorded values")
	}
	if r.Len() != 0 {
		t.Error("nil registry has entries")
	}
	var buf bytes.Buffer
	if err := r.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Errorf("nil registry snapshot invalid: %v\n%s", err, buf.String())
	}
}

func TestAuditJSONL(t *testing.T) {
	a := NewAudit()
	a.Record(Decision{
		At: time.Second, Job: "job1", App: "sort", Attempt: 1,
		Size: 64 << 30, Ratio: 1.0, RatioKnown: true, Threshold: 32 << 30,
		Static: "scale-out", Dest: "scale-out",
	})
	a.Record(Decision{
		At: 2 * time.Second, Job: "job2", App: "grep", Attempt: 2,
		Size: 1 << 30, Ratio: 0.4, RatioKnown: true, Threshold: 16 << 30,
		Static: "scale-up", Dest: "scale-out", Rerouted: true,
		Probed: true, PrefETA: 90 * time.Second, AltETA: 30 * time.Second,
		PrefOK: true, AltOK: true, UpMachinesDown: 4,
	})
	var buf bytes.Buffer
	if err := a.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var d0, d1 map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &d0); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &d1); err != nil {
		t.Fatal(err)
	}
	if d0["margin_bytes"] != float64(-32<<30) {
		t.Errorf("margin_bytes = %v, want %v", d0["margin_bytes"], float64(-32<<30))
	}
	if _, ok := d0["probed"]; ok {
		t.Error("unprobed decision has probe fields")
	}
	// job2 was rerouted to the alternative, so its margin is pref − alt.
	if d1["margin_ns"] != float64(60*time.Second) {
		t.Errorf("margin_ns = %v, want %v", d1["margin_ns"], float64(60*time.Second))
	}
	if d1["up_machines_down"] != float64(4) {
		t.Errorf("up_machines_down = %v", d1["up_machines_down"])
	}

	var na *Audit
	if na.Enabled() || na.Len() != 0 || na.Decisions() != nil {
		t.Error("nil audit not inert")
	}
	na.Record(Decision{})
	var nb bytes.Buffer
	if err := na.WriteJSONL(&nb); err != nil || nb.Len() != 0 {
		t.Error("nil audit wrote output")
	}
}

func TestSetEnabled(t *testing.T) {
	if (Set{}).Enabled() {
		t.Error("zero Set reports enabled")
	}
	if !(Set{Trace: NewTracer()}).Enabled() {
		t.Error("Set with tracer reports disabled")
	}
	if !(Set{Metrics: NewRegistry()}).Enabled() {
		t.Error("Set with registry reports disabled")
	}
	if !(Set{Audit: NewAudit()}).Enabled() {
		t.Error("Set with audit reports disabled")
	}
}

func TestAppendFloatSpecials(t *testing.T) {
	cases := map[float64]string{
		math.Inf(1):  `"+Inf"`,
		math.Inf(-1): `"-Inf"`,
		0.25:         "0.25",
	}
	for v, want := range cases {
		if got := string(appendFloat(nil, v)); got != want {
			t.Errorf("appendFloat(%v) = %s, want %s", v, got, want)
		}
	}
	if got := string(appendFloat(nil, math.NaN())); got != `"NaN"` {
		t.Errorf("appendFloat(NaN) = %s", got)
	}
	if got, want := string(appendJSONString(nil, "a\"b\\c\nd\x01")), "\"a\\\"b\\\\c\\nd\\u0001\""; got != want {
		t.Errorf("appendJSONString = %s, want %s", got, want)
	}
}
