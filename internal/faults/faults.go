// Package faults models timed infrastructure failures for the hybrid
// architecture's resilience experiments: machine crashes and recoveries,
// OrangeFS storage-server loss (stripe-width shrink plus rebuild bandwidth
// tax) and HDFS datanode loss (re-replication traffic, remote reads for
// under-replicated blocks). A Schedule is a deterministic list of events the
// simulator replays against a cluster; a Poisson generator synthesizes
// schedules from per-machine-class MTBF/MTTR figures. Everything is seeded
// and content-fingerprinted, so faulted runs are reproducible and never
// alias clean entries in the sweep memoization cache.
package faults

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Kind enumerates the fault event types.
type Kind int

const (
	// MachineCrash takes Count compute machines of the target cluster
	// offline: their slots disappear, their in-flight tasks die and — per
	// Hadoop 1.x tasktracker-loss semantics — their completed map outputs
	// are lost and re-executed.
	MachineCrash Kind = iota
	// MachineRecover brings Count machines back; their slots rejoin the
	// pool empty.
	MachineRecover
	// OFSServerDown removes Count OFS storage servers: files striped over
	// fewer servers, and the rebuild traffic taxes the survivors'
	// bandwidth. OFS is mounted by every cluster, so these events are
	// cluster-wide (Cluster is normalized to "all").
	OFSServerDown
	// OFSServerUp restores Count OFS servers.
	OFSServerUp
	// DatanodeDown removes Count HDFS datanodes of the target cluster:
	// capacity shrinks, under-replicated blocks are read remotely and
	// re-replication traffic taxes the surviving disks and NICs.
	DatanodeDown
	// DatanodeUp restores Count datanodes.
	DatanodeUp

	// The gray-failure kinds below model degradation rather than loss: the
	// affected capacity stays in service, just slower. Start kinds open a
	// window and carry a slowdown Factor ≥ 1; end kinds close it. They are
	// appended after the binary kinds so pre-existing schedules keep their
	// enum values and fingerprints.

	// CPUSlow makes Count machines of the target cluster compute at 1/Factor
	// of their speed (thermal throttling, noisy neighbors, failing fans).
	// Count 0 means every machine.
	CPUSlow
	// CPUOk ends a CPU slowdown window.
	CPUOk
	// DiskSlow makes Count machines' disks run at 1/Factor (failing media,
	// background scrubbing, re-replication traffic). Count 0 means every
	// machine.
	DiskSlow
	// DiskOk ends a disk slowdown window.
	DiskOk
	// NICThrottle divides the cluster's per-node network bandwidth by
	// Factor (a misnegotiated link, congested uplink). Cluster-wide: Count
	// must be 1.
	NICThrottle
	// NICOk ends a NIC throttle window.
	NICOk
	// RackPartition divides the cluster's bisection bandwidth by Factor (a
	// partially failed inter-rack link: nodes still reachable, aggregate
	// traffic squeezed). Cluster-wide: Count must be 1.
	RackPartition
	// RackHeal ends a rack partition window.
	RackHeal
)

// String implements fmt.Stringer with the parser's spelling.
func (k Kind) String() string {
	switch k {
	case MachineCrash:
		return "crash"
	case MachineRecover:
		return "recover"
	case OFSServerDown:
		return "ofs-down"
	case OFSServerUp:
		return "ofs-up"
	case DatanodeDown:
		return "dn-down"
	case DatanodeUp:
		return "dn-up"
	case CPUSlow:
		return "cpu-slow"
	case CPUOk:
		return "cpu-ok"
	case DiskSlow:
		return "disk-slow"
	case DiskOk:
		return "disk-ok"
	case NICThrottle:
		return "nic-slow"
	case NICOk:
		return "nic-ok"
	case RackPartition:
		return "rack-part"
	case RackHeal:
		return "rack-heal"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// IsRecovery reports whether the kind restores capacity or ends a
// degradation window.
func (k Kind) IsRecovery() bool {
	switch k {
	case MachineRecover, OFSServerUp, DatanodeUp, CPUOk, DiskOk, NICOk, RackHeal:
		return true
	}
	return false
}

// IsGray reports whether the kind is a gray-failure (degradation) event
// rather than a binary loss or recovery.
func (k Kind) IsGray() bool { return k >= CPUSlow && k <= RackHeal }

// counterpart returns the down-kind a recovery undoes (identity for
// down-kinds).
func (k Kind) counterpart() Kind {
	switch k {
	case MachineRecover:
		return MachineCrash
	case OFSServerUp:
		return OFSServerDown
	case DatanodeUp:
		return DatanodeDown
	case CPUOk:
		return CPUSlow
	case DiskOk:
		return DiskSlow
	case NICOk:
		return NICThrottle
	case RackHeal:
		return RackPartition
	default:
		return k
	}
}

// grayStream groups the gray kinds into their window streams: a start and
// its end share a stream, and at most one window per (interacting cluster,
// stream) may be open at a time.
func grayStream(k Kind) string {
	switch k {
	case CPUSlow, CPUOk:
		return "cpu"
	case DiskSlow, DiskOk:
		return "disk"
	case NICThrottle, NICOk:
		return "nic"
	case RackPartition, RackHeal:
		return "rack"
	default:
		return ""
	}
}

// clusterWideGray reports whether the gray kind affects the whole fabric
// (Count is fixed at 1) rather than a machine subset.
func clusterWideGray(k Kind) bool {
	switch k {
	case NICThrottle, NICOk, RackPartition, RackHeal:
		return true
	}
	return false
}

// Cluster labels name the half of the hybrid an event applies to. The
// baselines (THadoop/RHadoop, one undivided cluster for the same total
// price) adopt every compute event regardless of label — the same physical
// failure process hits their pool.
const (
	// ClusterUp targets the scale-up half.
	ClusterUp = "up"
	// ClusterOut targets the scale-out half.
	ClusterOut = "out"
	// ClusterAll targets every cluster (mandatory for OFS events — the
	// remote file system is shared).
	ClusterAll = "all"
)

// Event is one timed fault.
type Event struct {
	// At is the simulated instant the event fires.
	At time.Duration
	// Kind is the fault type.
	Kind Kind
	// Cluster is "up", "out" or "all".
	Cluster string
	// Count is the number of machines/servers affected. Binary kinds
	// require ≥ 1; the machine gray kinds (cpu/disk) accept 0 meaning
	// "every machine of the cluster"; the cluster-wide gray kinds
	// (nic/rack) require exactly 1.
	Count int
	// Factor is the gray slowdown factor: start kinds (cpu-slow,
	// disk-slow, nic-slow, rack-part) divide the affected rate by it and
	// require ≥ 1; end kinds and binary kinds must leave it zero.
	Factor float64
}

// String renders the event in the parser's syntax.
func (e Event) String() string {
	if e.Factor > 0 {
		return fmt.Sprintf("%s:%s@%vx%d*%g", e.Cluster, e.Kind, e.At, e.Count, e.Factor)
	}
	return fmt.Sprintf("%s:%s@%vx%d", e.Cluster, e.Kind, e.At, e.Count)
}

// validKind reports whether k is one of the declared kinds.
func validKind(k Kind) bool { return k >= MachineCrash && k <= RackHeal }

// grayStart reports whether the kind opens a degradation window (and so
// must carry a Factor).
func grayStart(k Kind) bool { return k.IsGray() && !k.IsRecovery() }

// Validate reports malformed fields on one event.
func (e Event) Validate() error {
	switch {
	case e.At < 0:
		return fmt.Errorf("faults: event %v: negative time", e)
	case !validKind(e.Kind):
		return fmt.Errorf("faults: event at %v: unknown kind %d", e.At, int(e.Kind))
	case e.Cluster != ClusterUp && e.Cluster != ClusterOut && e.Cluster != ClusterAll:
		return fmt.Errorf("faults: event %v: cluster %q (want up, out or all)", e, e.Cluster)
	case (e.Kind == OFSServerDown || e.Kind == OFSServerUp) && e.Cluster != ClusterAll:
		return fmt.Errorf("faults: event %v: OFS is shared by every cluster; use cluster %q", e, ClusterAll)
	}
	switch {
	case clusterWideGray(e.Kind):
		if e.Count != 1 {
			return fmt.Errorf("faults: event %v: %s is cluster-wide; count must be 1", e, e.Kind)
		}
	case e.Kind == CPUSlow || e.Kind == CPUOk || e.Kind == DiskSlow || e.Kind == DiskOk:
		if e.Count < 0 {
			return fmt.Errorf("faults: event %v: count %d (0 means every machine)", e, e.Count)
		}
	default:
		if e.Count < 1 {
			return fmt.Errorf("faults: event %v: count %d", e, e.Count)
		}
	}
	if grayStart(e.Kind) {
		if e.Factor < 1 || math.IsInf(e.Factor, 0) || math.IsNaN(e.Factor) {
			return fmt.Errorf("faults: event %v: slowdown factor %v below 1", e, e.Factor)
		}
	} else if e.Factor != 0 {
		return fmt.Errorf("faults: event %v: factor %v on a kind that takes none", e, e.Factor)
	}
	return nil
}

// Schedule is an ordered fault timeline. Construct with NewSchedule (which
// sorts and validates) or Generate.
type Schedule struct {
	// Events is sorted by time (ties broken by cluster, kind, count) so
	// replays are deterministic regardless of authoring order.
	Events []Event
}

// NewSchedule sorts the events deterministically and validates the result.
func NewSchedule(events []Event) (*Schedule, error) {
	s := &Schedule{Events: append([]Event(nil), events...)}
	sortEvents(s.Events)
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// sortEvents orders events by (time, cluster, kind, count, factor): a total,
// content-derived order, so two schedules with the same events replay — and
// fingerprint — identically.
func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Cluster != b.Cluster {
			return a.Cluster < b.Cluster
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Count != b.Count {
			return a.Count < b.Count
		}
		return a.Factor < b.Factor
	})
}

// Validate checks every event plus the cross-event invariants: events in
// time order; for each (cluster, resource) stream no recovery may exceed
// the outstanding losses at its instant — recovering a machine that never
// crashed is a schedule bug, not a scenario; no two events may be exact
// duplicates (the parser used to let the last writer win silently); and
// gray degradation windows of one stream (cpu, disk, nic, rack) may not
// overlap on interacting clusters — a second cpu-slow on "up" (or on "all")
// while one is open on "up" is a spec bug, because the window model keeps
// exactly one factor per stream, and closing a window that was never opened
// is equally rejected.
//
// Whether the losses fit a concrete cluster (a crash may never leave zero
// machines) is checked against real capacities when a simulator is built
// with the schedule (mapreduce.ReplayState.Simulator), which knows the
// machine and server counts.
func (s *Schedule) Validate() error {
	down := make(map[string]int)
	open := make(map[string]Event) // stream+"/"+cluster -> open gray window
	var last time.Duration
	for i, e := range s.Events {
		if err := e.Validate(); err != nil {
			return err
		}
		if e.At < last {
			return fmt.Errorf("faults: events out of order at %v (use NewSchedule)", e.At)
		}
		last = e.At
		if i > 0 && e == s.Events[i-1] {
			return fmt.Errorf("faults: event %d (%v): exact duplicate", i, e)
		}
		if e.Kind.IsGray() {
			stream := grayStream(e.Kind)
			if grayStart(e.Kind) {
				for _, c := range interacting(e.Cluster) {
					if w, ok := open[stream+"/"+c]; ok {
						return fmt.Errorf("faults: event %d (%v): overlaps open %s window %v", i, e, stream, w)
					}
				}
				open[stream+"/"+e.Cluster] = e
			} else {
				if _, ok := open[stream+"/"+e.Cluster]; !ok {
					return fmt.Errorf("faults: event %d (%v): closes a %s window that is not open on %q", i, e, stream, e.Cluster)
				}
				delete(open, stream+"/"+e.Cluster)
			}
			continue
		}
		key := e.Cluster + "/" + e.Kind.counterpart().String()
		if e.Kind.IsRecovery() {
			down[key] -= e.Count
			if down[key] < 0 {
				return fmt.Errorf("faults: event %d (%v): recovery before any matching loss", i, e)
			}
		} else {
			down[key] += e.Count
		}
	}
	return nil
}

// interacting lists the cluster labels a window on cluster c collides with:
// itself, and "all" collides with everything.
func interacting(c string) []string {
	if c == ClusterAll {
		return []string{ClusterUp, ClusterOut, ClusterAll}
	}
	return []string{c, ClusterAll}
}

// Empty reports whether the schedule has no events; a nil schedule is empty.
func (s *Schedule) Empty() bool { return s == nil || len(s.Events) == 0 }

// ForCluster returns the events a cluster labeled name must replay: its own
// plus the cluster-wide ones. Storage events that do not match the cluster's
// file system are filtered later by the simulator.
func (s *Schedule) ForCluster(name string) []Event {
	if s == nil {
		return nil
	}
	var out []Event
	for _, e := range s.Events {
		if e.Cluster == name || e.Cluster == ClusterAll {
			out = append(out, e)
		}
	}
	return out
}

// ForBaseline returns every event: an undivided baseline cluster (THadoop,
// RHadoop) absorbs the whole failure process that the hybrid splits between
// its halves.
func (s *Schedule) ForBaseline() []Event {
	if s == nil {
		return nil
	}
	return append([]Event(nil), s.Events...)
}

// FNV-1a constants, matching the sweep cache's inlined variant.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

func fnvStr(h uint64, s string) uint64 {
	h = fnvWord(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// Fingerprint returns a 64-bit content hash of the schedule: two schedules
// fingerprint equal exactly when their (sorted) events are field-for-field
// equal. It is the sweep cache key's Faults field, next to the platform
// hash, so a simulation under a fault schedule can never alias a clean run —
// or a run under a different schedule. A nil or empty schedule fingerprints to 0, the
// clean-run sentinel.
func (s *Schedule) Fingerprint() uint64 {
	if s.Empty() {
		return 0
	}
	h := uint64(fnvOffset64)
	for _, e := range s.Events {
		h = fnvWord(h, uint64(e.At))
		h = fnvWord(h, uint64(e.Kind))
		h = fnvStr(h, e.Cluster)
		h = fnvWord(h, uint64(e.Count))
		if e.Kind.IsGray() {
			// The factor is folded only for gray kinds, so schedules
			// written before the gray-failure model fingerprint exactly
			// as they always did.
			h = fnvWord(h, math.Float64bits(e.Factor))
		}
	}
	if h == 0 {
		h = 1 // keep 0 reserved for "no faults"
	}
	return h
}

// Merge combines two schedules into one validated timeline; either may be
// nil or empty. The hybrid CLIs use it to overlay a -degrade gray schedule
// on a -faults crash schedule.
func Merge(a, b *Schedule) (*Schedule, error) {
	var events []Event
	if a != nil {
		events = append(events, a.Events...)
	}
	if b != nil {
		events = append(events, b.Events...)
	}
	if len(events) == 0 {
		return &Schedule{}, nil
	}
	return NewSchedule(events)
}

// WithRerepl returns the schedule with post-loss re-replication windows
// appended: every storage-loss event (ofs-down, dn-down) opens a
// cluster-wide disk slowdown of the given factor for the given window — the
// surviving disks pay for rebuilding the lost servers' data, a first-order
// recovery cost (arXiv:1411.1931). Loss instants closer together than the
// window are coalesced into one interval, so back-to-back losses never
// produce overlapping windows. factor must be ≥ 1 and window > 0; a factor
// of exactly 1 returns the schedule unchanged.
func (s *Schedule) WithRerepl(factor float64, window time.Duration) (*Schedule, error) {
	switch {
	case factor < 1 || math.IsInf(factor, 0) || math.IsNaN(factor):
		return nil, fmt.Errorf("faults: rerepl factor %v below 1", factor)
	case window <= 0:
		return nil, fmt.Errorf("faults: rerepl window %v not positive", window)
	}
	if s.Empty() || factor == 1 {
		return s, nil
	}
	// Collect loss instants per cluster label and merge intervals.
	starts := make(map[string][]time.Duration)
	for _, e := range s.Events {
		if e.Kind == OFSServerDown || e.Kind == DatanodeDown {
			starts[e.Cluster] = append(starts[e.Cluster], e.At)
		}
	}
	events := append([]Event(nil), s.Events...)
	for _, c := range []string{ClusterUp, ClusterOut, ClusterAll} {
		ts := starts[c]
		if len(ts) == 0 {
			continue
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		openAt, closeAt := ts[0], ts[0]+window
		for _, t := range ts[1:] {
			if t <= closeAt {
				closeAt = t + window
				continue
			}
			events = append(events,
				Event{At: openAt, Kind: DiskSlow, Cluster: c, Factor: factor},
				Event{At: closeAt, Kind: DiskOk, Cluster: c})
			openAt, closeAt = t, t+window
		}
		events = append(events,
			Event{At: openAt, Kind: DiskSlow, Cluster: c, Factor: factor},
			Event{At: closeAt, Kind: DiskOk, Cluster: c})
	}
	return NewSchedule(events)
}

// Demo returns the reference resilience scenario used by the golden test and
// `hybridsim -faults demo`: one of the two scale-up machines crashes half an
// hour into the trace and stays down for most of the day — the asymmetric
// blast radius the hybrid design begs to be tested against (50% of that
// half's slots versus 8% for one scale-out machine) — plus a transient loss
// of 4 of the 32 shared OFS servers.
func Demo() *Schedule {
	s, err := NewSchedule([]Event{
		{At: 30 * time.Minute, Kind: MachineCrash, Cluster: ClusterUp, Count: 1},
		{At: 10 * time.Hour, Kind: MachineRecover, Cluster: ClusterUp, Count: 1},
		{At: 2 * time.Hour, Kind: OFSServerDown, Cluster: ClusterAll, Count: 4},
		{At: 5 * time.Hour, Kind: OFSServerUp, Cluster: ClusterAll, Count: 4},
	})
	if err != nil {
		panic(err) // static scenario; cannot fail
	}
	return s
}

// GrayDemo returns the reference gray-failure scenario used by the
// gray_resilience golden and `hybridsim -degrade demo`: one of the two
// scale-up machines computes at half speed for most of the morning (the
// asymmetric blast radius again — 50% of that half's compute), three
// scale-out machines run on slow disks, a cluster-wide NIC throttle squeezes
// an hour of the afternoon, and a partial rack partition briefly cuts the
// scale-out half's bisection bandwidth. All capacity stays up: every event
// here is invisible to a binary health model.
func GrayDemo() *Schedule {
	s, err := NewSchedule([]Event{
		{At: 1 * time.Hour, Kind: CPUSlow, Cluster: ClusterUp, Count: 1, Factor: 2.0},
		{At: 6 * time.Hour, Kind: CPUOk, Cluster: ClusterUp, Count: 1},
		{At: 90 * time.Minute, Kind: DiskSlow, Cluster: ClusterOut, Count: 3, Factor: 1.8},
		{At: 7 * time.Hour, Kind: DiskOk, Cluster: ClusterOut, Count: 3},
		{At: 3 * time.Hour, Kind: NICThrottle, Cluster: ClusterAll, Count: 1, Factor: 1.5},
		{At: 4 * time.Hour, Kind: NICOk, Cluster: ClusterAll, Count: 1},
		{At: 8 * time.Hour, Kind: RackPartition, Cluster: ClusterOut, Count: 1, Factor: 3.0},
		{At: 8*time.Hour + 45*time.Minute, Kind: RackHeal, Cluster: ClusterOut, Count: 1},
	})
	if err != nil {
		panic(err) // static scenario; cannot fail
	}
	return s
}
