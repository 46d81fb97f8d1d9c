package simclock

import (
	"container/heap"
	"testing"
	"testing/quick"
	"time"
)

// refEngine is the pre-optimization event kernel — container/heap over
// per-event *refItem allocations — kept verbatim as the behavioral
// reference: the 4-ary value-heap Engine must execute any schedule in
// exactly the same order and reach the same final clock.
type refEngine struct {
	now     time.Duration
	seq     uint64
	pending refHeap
	ran     uint64
}

type refItem struct {
	at  time.Duration
	seq uint64
	fn  Event
}

type refHeap []*refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

func (e *refEngine) Now() time.Duration { return e.now }
func (e *refEngine) At(at time.Duration, fn Event) {
	e.seq++
	heap.Push(&e.pending, &refItem{at: at, seq: e.seq, fn: fn})
}
func (e *refEngine) After(d time.Duration, fn Event) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}
func (e *refEngine) Run() time.Duration {
	for len(e.pending) > 0 {
		it := heap.Pop(&e.pending).(*refItem)
		e.now = it.at
		e.ran++
		it.fn(e.now)
	}
	return e.now
}

// scheduler is the surface both engines share for the equivalence test.
type scheduler interface {
	Now() time.Duration
	At(time.Duration, Event)
	After(time.Duration, Event)
	Run() time.Duration
}

// fired is one executed event, identified by schedule position and instant.
type fired struct {
	id int
	at time.Duration
}

// refOp is one randomly generated schedule entry: an initial event at Delay,
// which on firing spawns Spawn%4 nested events at increasing offsets —
// exercising At-during-Run, duplicate timestamps (Delay is coarse), and
// deep FIFO chains at equal instants (offset 0 when Spawn is a multiple
// of 4 is clamped by After).
type refOp struct {
	Delay uint16
	Spawn uint8
}

// replay runs the schedule on one engine and records the execution order.
func replay(eng scheduler, ops []refOp) ([]fired, time.Duration, int) {
	var log []fired
	next := len(ops) // ids for spawned events
	var spawnFn func(id int, spawn uint8) Event
	spawnFn = func(id int, spawn uint8) Event {
		return func(now time.Duration) {
			log = append(log, fired{id: id, at: now})
			for i := 0; i < int(spawn%4); i++ {
				child := next
				next++
				// Children reuse a decayed spawn count, so chains terminate.
				eng.After(time.Duration(i)*time.Duration(spawn)*time.Millisecond,
					spawnFn(child, spawn/2))
			}
		}
	}
	for id, op := range ops {
		// Coarse 10ms buckets force plenty of equal-timestamp collisions.
		eng.At(time.Duration(op.Delay%32)*10*time.Millisecond, spawnFn(id, op.Spawn))
	}
	end := eng.Run()
	return log, end, next
}

// TestEngineMatchesReferenceHeap is the equivalence property: random event
// schedules — including nested scheduling and many equal-timestamp ties —
// execute in identical order, to an identical final clock, on the old
// container/heap kernel and the 4-ary value-heap kernel.
func TestEngineMatchesReferenceHeap(t *testing.T) {
	f := func(ops []refOp) bool {
		gotLog, gotEnd, gotN := replay(New(), ops)
		wantLog, wantEnd, wantN := replay(&refEngine{}, ops)
		if gotEnd != wantEnd || gotN != wantN || len(gotLog) != len(wantLog) {
			return false
		}
		for i := range gotLog {
			if gotLog[i] != wantLog[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestEngineEventsMatchReference pins the executed-event counter against the
// reference on a fixed busy schedule (the resilience report's events/sec
// line relies on it).
func TestEngineEventsMatchReference(t *testing.T) {
	ops := make([]refOp, 100)
	for i := range ops {
		ops[i] = refOp{Delay: uint16(i * 17), Spawn: uint8(i)}
	}
	eng := New()
	ref := &refEngine{}
	replay(eng, ops)
	replay(ref, ops)
	if eng.Events() != ref.ran {
		t.Errorf("Events() = %d, reference ran %d", eng.Events(), ref.ran)
	}
	if eng.Events() == uint64(len(ops)) {
		t.Error("schedule spawned no nested events; property too weak")
	}
}

// TestEngineResetReplayIdentical is the reuse property: any random schedule
// executed on a Reset() engine — dirtied first by a different schedule, and
// with events still pending when the reset lands, so all three pending
// structures (heap, sorted runs) hold leftovers — runs in exactly the same
// order, to the same final clock, as on a fresh engine.
func TestEngineResetReplayIdentical(t *testing.T) {
	f := func(ops, dirty []refOp) bool {
		eng := New()
		// Dirty the engine: schedule the other workload, execute only a third
		// of it, and reset with the remainder still pending.
		for id, op := range dirty {
			eng.At(time.Duration(op.Delay%32)*10*time.Millisecond, func(time.Duration) {
				_ = id
			})
		}
		for range len(dirty) / 3 {
			eng.Step()
		}
		eng.Reset()
		if eng.Now() != 0 || eng.Pending() != 0 || eng.Events() != 0 {
			return false
		}

		gotLog, gotEnd, gotN := replay(eng, ops)
		wantLog, wantEnd, wantN := replay(New(), ops)
		if gotEnd != wantEnd || gotN != wantN || len(gotLog) != len(wantLog) {
			return false
		}
		for i := range gotLog {
			if gotLog[i] != wantLog[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
