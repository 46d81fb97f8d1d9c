// Package simclock implements the discrete-event simulation kernel the
// Hadoop cluster models run on. Time is virtual: events are executed in
// timestamp order (FIFO among equal timestamps) and the clock jumps from
// event to event, so simulating a day-long Facebook workload takes
// milliseconds of real time and is fully deterministic.
package simclock

import (
	"fmt"
	"math/bits"
	"time"
)

// Event is a callback scheduled to run at a simulated instant.
type Event func(now time.Duration)

// item is one pending event. Items are stored by value inside the engine's
// heap slice: pushing an event never allocates an *item, and a popped slot
// is reused by the next push — the slice's spare capacity is the freelist.
type item struct {
	at  time.Duration
	seq uint64
	fn  Event
}

// before is the engine's total order: timestamp, then scheduling sequence.
// seq is unique per engine, so the order has no ties and the replay is
// bit-for-bit deterministic — FIFO among equal timestamps.
func (a item) before(b item) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine is a single-threaded discrete-event simulator. The zero value is
// ready to use. Engines are not safe for concurrent use; the simulated
// cluster is a sequential model even though it represents parallel hardware.
//
// The pending set is a 4-ary min-heap of item values ordered by (at, seq).
// Compared with the previous container/heap implementation this removes the
// interface boxing and the per-event *item allocation from every push and
// pop, and the shallower tree roughly halves the compare/copy work per
// sift — steady-state At/After/Step is allocation-free (see
// TestEngineAfterSteadyStateAllocs). The (at, seq) order is identical, so
// execution order is byte-for-byte unchanged (see
// TestEngineMatchesReferenceHeap).
type Engine struct {
	now     time.Duration
	seq     uint64
	pending []item // 4-ary min-heap on (at, seq): the out-of-order stragglers

	// streams are the sorted-run fast path. A discrete-event simulation's
	// schedule is approximately increasing — every event is scheduled at
	// now+d with now nondecreasing — so most events extend some run whose
	// tail timestamp is ≤ their own (best fit: the largest such tail), and
	// runs pop from the head in O(1) with no sift. Because seq increases
	// monotonically, each run is sorted by (at, seq) and its head is its
	// minimum; Step takes the least head across the runs and the heap root,
	// so the execution order is identical to an all-heap engine — only the
	// storage differs. Pre-scheduled traces (thousands of arrivals in
	// ascending order) occupy one run outright, and completion timers
	// stratify across the rest by horizon, leaving the heap nearly empty.
	streams [numStreams]sortedRun
	// used has bit k set while streams[k] is non-empty, so the per-event
	// push and pop scans only touch occupied runs (usually a handful).
	used uint32
	// head and tail mirror each occupied run's head key and tail
	// timestamp, so the per-event min-scan (Step) and best-fit scan (At)
	// read a few contiguous words instead of chasing every run's slice.
	// Entries are meaningful only while the run's used bit is set.
	head [numStreams]runKey
	tail [numStreams]time.Duration

	ran   uint64
	watch *Watchdog
}

// numStreams is the ladder width. Each pending run head costs one compare
// per Step, so the width trades pop-scan cost against how finely the
// in-flight timer horizons can stratify before overflowing into the heap.
const numStreams = 8

// runMask has the low numStreams bits set; ^used & runMask picks a free run.
const runMask = 1<<numStreams - 1

// sortedRun is one append-only sorted run: items[next:] is pending, sorted
// ascending by (at, seq); consumed slots are zeroed and the run resets to
// its full capacity once drained.
type sortedRun struct {
	items []item
	next  int
}

// runKey is a run head's position in the engine's (at, seq) total order.
type runKey struct {
	at  time.Duration
	seq uint64
}

// Watchdog bounds a simulation run: exceeding either budget makes Step
// panic with a *BudgetError instead of executing the next event. The sweep
// runner's panic isolation converts that into a typed per-point error, so one
// runaway simulation (a feedback loop that schedules forever, a schedule that
// re-queues the same work endlessly) cannot take down a whole experiment.
// Zero fields are unlimited; the zero Watchdog is no watchdog.
type Watchdog struct {
	// MaxEvents is the largest number of executed events allowed; 0 means
	// no event budget.
	MaxEvents uint64
	// MaxSimTime is the latest simulated instant an event may run at; 0
	// means no time budget.
	MaxSimTime time.Duration
}

// BudgetError reports a simulation stopped by its watchdog. It is delivered
// by panic from inside Step — the engine cannot return errors through event
// callbacks — and is recovered by sweep.Protect.
type BudgetError struct {
	// Events and SimTime describe the run at the moment it was stopped.
	Events  uint64
	SimTime time.Duration
	// MaxEvents and MaxSimTime echo the exceeded budget (zero for the
	// dimension that did not fire).
	MaxEvents  uint64
	MaxSimTime time.Duration
}

func (b *BudgetError) Error() string {
	if b.MaxEvents > 0 {
		return fmt.Sprintf("simclock: event budget %d exhausted at %v", b.MaxEvents, b.SimTime)
	}
	return fmt.Sprintf("simclock: sim-time budget %v exceeded after %d events", b.MaxSimTime, b.Events)
}

// SetWatchdog installs (or, with nil, removes) the engine's watchdog. The
// budgets are absolute — measured against the engine's total event count and
// clock — so install it on a fresh engine.
func (e *Engine) SetWatchdog(w *Watchdog) { e.watch = w }

// guard enforces the watchdog before the next event (at instant at) runs.
// It stays out of line: inlined, its cold panic paths grow Step, and the
// gray-resilience benchmark's iter_ms_p50 read 3% slower (DESIGN §7).
//
//go:noinline
func (e *Engine) guard(at time.Duration) {
	w := e.watch
	if w.MaxEvents > 0 && e.ran >= w.MaxEvents {
		panic(&BudgetError{Events: e.ran, SimTime: e.now, MaxEvents: w.MaxEvents})
	}
	if w.MaxSimTime > 0 && at > w.MaxSimTime {
		panic(&BudgetError{Events: e.ran, SimTime: at, MaxSimTime: w.MaxSimTime})
	}
}

// heapArity is the branching factor. 4 keeps the tree half as deep as a
// binary heap while every node's children share one cache line.
const heapArity = 4

// New returns an empty engine at simulated time zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() time.Duration { return e.now }

// Reset restores the engine to its just-constructed state — clock at zero,
// sequence counter at zero, no pending events, no watchdog — while keeping
// the storage of the pending heap and the sorted runs, so a replay on a reset
// engine schedules into warm storage but is byte-for-byte identical to one on
// a fresh engine (the seq counter restarts, so the (at, seq) total order is
// reproduced exactly). The vacated slots are cleared first so dropped event
// closures are released for GC rather than pinned by the spare capacity.
// The engine is then rebuilt as one value naming only the kept storage, so
// every other field, including one added later, starts from zero.
func (e *Engine) Reset() {
	clear(e.pending)
	var streams [numStreams]sortedRun
	for k, r := range e.streams {
		clear(r.items)
		streams[k].items = r.items[:0]
	}
	*e = Engine{pending: e.pending[:0], streams: streams}
}

// Events reports how many events have been executed so far.
func (e *Engine) Events() uint64 { return e.ran }

// Pending reports how many events are scheduled but not yet run.
func (e *Engine) Pending() int {
	n := len(e.pending)
	for k := range e.streams {
		r := &e.streams[k]
		n += len(r.items) - r.next
	}
	return n
}

// At schedules fn to run at absolute simulated time at. Scheduling in the
// past (before Now) panics: the model would be causally inconsistent.
func (e *Engine) At(at time.Duration, fn Event) {
	if fn == nil {
		panic("simclock: nil event")
	}
	if at < e.now {
		panic(fmt.Sprintf("simclock: scheduling at %v, before now %v", at, e.now))
	}
	e.seq++
	// Best-fit run: the one with the largest tail timestamp ≤ at (appending
	// keeps it sorted — seq is monotone), falling back to an empty run, and
	// to the heap only when every run's tail is in the event's future.
	best := -1
	bestTail := time.Duration(-1)
	for mask := e.used; mask != 0; mask &= mask - 1 {
		k := bits.TrailingZeros32(mask)
		if t := e.tail[k]; t <= at && t > bestTail {
			best, bestTail = k, t
		}
	}
	if best < 0 {
		if free := ^e.used & runMask; free != 0 {
			best = bits.TrailingZeros32(free)
		}
	}
	if best >= 0 {
		if e.used&(1<<best) == 0 {
			e.head[best] = runKey{at: at, seq: e.seq}
			e.used |= 1 << best
		}
		r := &e.streams[best]
		r.items = append(r.items, item{at: at, seq: e.seq, fn: fn})
		e.tail[best] = at
		return
	}
	e.pending = append(e.pending, item{at: at, seq: e.seq, fn: fn})
	e.siftUp(len(e.pending) - 1)
}

// After schedules fn to run d after the current simulated time. Negative
// delays are clamped to zero.
func (e *Engine) After(d time.Duration, fn Event) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// siftUp restores the heap property after appending at index i.
func (e *Engine) siftUp(i int) {
	p := e.pending
	it := p[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		pa := p[parent]
		if it.at > pa.at || (it.at == pa.at && it.seq > pa.seq) {
			break
		}
		p[i] = pa
		i = parent
	}
	p[i] = it
}

// siftDown re-places it from the root after the minimum was removed. The
// heap stays shallow — the stream absorbs sorted traffic, so pending holds
// only the out-of-order timers and fits in L1 — which makes the compare
// chain, not memory, the cost; the loop keeps the current minimum child's
// key in locals so each candidate costs one load and (usually) one compare.
func (e *Engine) siftDown(it item) {
	p := e.pending
	n := len(p)
	i := 0
	for {
		first := i*heapArity + 1
		if first >= n {
			break
		}
		end := first + heapArity
		if end > n {
			end = n
		}
		best := first
		ba, bs := p[first].at, p[first].seq
		for c := first + 1; c < end; c++ {
			ca, cs := p[c].at, p[c].seq
			if ca < ba || (ca == ba && cs < bs) {
				best, ba, bs = c, ca, cs
			}
		}
		if ba > it.at || (ba == it.at && bs > it.seq) {
			break
		}
		p[i] = p[best]
		i = best
	}
	p[i] = it
}

// Step runs the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was run.
func (e *Engine) Step() bool {
	// The global minimum is the least of the run heads and the heap root —
	// each is its structure's minimum, so one linear scan finds it.
	from := -1 // run index, or -1 for the heap
	var at time.Duration
	var seq uint64
	has := len(e.pending) > 0
	if has {
		at, seq = e.pending[0].at, e.pending[0].seq
	}
	for mask := e.used; mask != 0; mask &= mask - 1 {
		k := bits.TrailingZeros32(mask)
		if h := e.head[k]; !has || h.at < at || (h.at == at && h.seq < seq) {
			at, seq, from, has = h.at, h.seq, k, true
		}
	}
	if !has {
		return false
	}
	if e.watch != nil {
		e.guard(at)
	}
	var fn Event
	if from >= 0 {
		r := &e.streams[from]
		fn = r.items[r.next].fn
		r.next++
		if r.next == len(r.items) {
			// One bulk clear per drained run releases all its consumed
			// closures for GC — cheaper than zeroing each slot per pop.
			clear(r.items)
			r.items = r.items[:0]
			r.next = 0
			e.used &^= 1 << from
		} else {
			if r.next >= 64 && r.next*2 >= len(r.items) {
				// Compact once the consumed prefix dominates: slide the live
				// suffix down and release the dead slots, so a run that never
				// fully drains (steady backlog) stays bounded by its pending
				// high-water mark instead of growing one slot per event.
				// Amortized O(1): each compaction copies no more items than
				// were popped since the previous one.
				live := copy(r.items, r.items[r.next:])
				clear(r.items[live:])
				r.items = r.items[:live]
				r.next = 0
			}
			h := &r.items[r.next]
			e.head[from] = runKey{at: h.at, seq: h.seq}
		}
	} else {
		fn = e.pending[0].fn
		n := len(e.pending)
		last := e.pending[n-1]
		e.pending[n-1] = item{} // release the vacated slot's closure for GC
		e.pending = e.pending[:n-1]
		if n > 1 {
			e.siftDown(last)
		}
	}
	e.now = at
	e.ran++
	fn(e.now)
	return true
}

// Run executes events until none remain, returning the final simulated time.
func (e *Engine) Run() time.Duration {
	for e.Step() {
	}
	return e.now
}
