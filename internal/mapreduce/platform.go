package mapreduce

import (
	"fmt"
	"math"
	"time"

	"hybridmr/internal/cluster"
	"hybridmr/internal/storage"
	"hybridmr/internal/storage/hdfs"
	"hybridmr/internal/storage/ofs"
	"hybridmr/internal/units"
)

// Platform is one of the paper's architectures: a cluster plus the file
// system its Hadoop is configured with, under a cost-model calibration.
type Platform struct {
	// Name is the Table I identifier, e.g. "up-OFS".
	Name string
	// Spec is the compute cluster.
	Spec cluster.Spec
	// FS is the file-system model jobs read and write through.
	FS storage.System
	// Cal is the cost-model calibration.
	Cal Calibration

	// root is the healthy platform a view was built from (nil on a healthy
	// platform), and level the view's losses and gray factors relative to
	// it; see View.
	root  *Platform
	level viewLevel
}

// viewLevel is how far a platform view is degraded from its healthy root:
// machines and storage servers (OFS) or datanodes (HDFS) down, and the gray
// NIC and bisection slowdown factors (1 = clean).
type viewLevel struct {
	machines, storage int
	nic, rack         float64
}

// healthy is the level of an undegraded platform.
var healthy = viewLevel{nic: 1, rack: 1}

// NewPlatform validates and assembles a platform.
func NewPlatform(name string, spec cluster.Spec, fs storage.System, cal Calibration) (*Platform, error) {
	if name == "" {
		return nil, fmt.Errorf("mapreduce: platform has no name")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if fs == nil {
		return nil, fmt.Errorf("mapreduce: platform %s has no file system", name)
	}
	if err := cal.Validate(); err != nil {
		return nil, err
	}
	return &Platform{Name: name, Spec: spec, FS: fs, Cal: cal}, nil
}

// View returns the platform with machinesDown more compute machines and
// storageDown more storage servers (OFS) or datanodes (HDFS) down, its NICs
// slowed by a further factor nic and its bisection bandwidth by rack — the
// planning view new jobs see under crashes, storage loss and gray network
// windows. The levels add to the receiver's own (counts add, factors
// multiply) and the view is always computed from the healthy platform, so
// a view of a view equals the one view with the summed levels. This is the
// only code that combines levels: the cluster's and the file system's View
// see the summed levels on the healthy spec and file system. Only the
// view's name carries its levels (the file system keeps its plain name),
// so cache keys and reports embedding it never alias the healthy platform
// or another view. View(0, 0, 1, 1) returns the
// receiver; negative losses, factors below 1 or infinite, losing every
// machine, and storage loss the file system cannot survive are errors.
func (p *Platform) View(machinesDown, storageDown int, nic, rack float64) (*Platform, error) {
	if machinesDown == 0 && storageDown == 0 && nic == 1 && rack == 1 {
		return p, nil
	}
	if machinesDown < 0 || storageDown < 0 || !(nic >= 1 && rack >= 1) || math.IsInf(nic, 1) || math.IsInf(rack, 1) {
		return nil, fmt.Errorf("mapreduce: platform %s: view with %d machines and %d servers down, nic ÷%g, bisection ÷%g: want losses ≥ 0 and finite factors ≥ 1",
			p.Name, machinesDown, storageDown, nic, rack)
	}
	root, lv := p, viewLevel{machinesDown, storageDown, nic, rack}
	if p.root != nil {
		root = p.root
		lv = viewLevel{p.level.machines + machinesDown, p.level.storage + storageDown, p.level.nic * nic, p.level.rack * rack}
	}
	spec, err := root.Spec.View(lv.machines, lv.nic, lv.rack)
	if err != nil {
		return nil, err
	}
	fs, err := root.FS.View(lv.storage, lv.nic)
	if err != nil {
		return nil, err
	}
	v, err := NewPlatform(lv.name(root.Name), spec, fs, root.Cal)
	if err != nil {
		return nil, err
	}
	v.root, v.level = root, lv
	return v, nil
}

// name formats a view's name from its healthy root's: the losses as
// [-Km,-Ss], then any gray factors as [gray nic÷F bis÷G].
func (l viewLevel) name(root string) string {
	name := root
	if l.machines != 0 || l.storage != 0 {
		name += fmt.Sprintf("[-%dm,-%ds]", l.machines, l.storage)
	}
	if l.nic != 1 || l.rack != 1 {
		name += "[gray"
		if l.nic != 1 {
			name += fmt.Sprintf(" nic÷%g", l.nic)
		}
		if l.rack != 1 {
			name += fmt.Sprintf(" bis÷%g", l.rack)
		}
		name += "]"
	}
	return name
}

// RunIsolated runs one job alone on the platform, as in the paper's
// measurement study (§III), and returns its phase durations in closed form.
// The result is identical to running the job through an empty Simulator.
func (p *Platform) RunIsolated(job Job) Result {
	pl, err := p.planJob(job)
	if err != nil {
		return Result{Job: job, Platform: p.Name, Err: err}
	}
	mapPhase := time.Duration(pl.mapWaves) * pl.task[kMap]
	reducePhase := time.Duration(pl.reduceWaves(p.Spec)) * pl.task[kRed]
	exec := pl.overhead + mapPhase + pl.shuffle + reducePhase
	return Result{
		Job:             job,
		Platform:        p.Name,
		Submit:          0,
		Start:           0,
		End:             exec,
		Exec:            exec,
		MapPhase:        mapPhase,
		ShufflePhase:    pl.shuffle,
		ReducePhase:     reducePhase,
		MapTasks:        pl.mapTasks,
		MapWaves:        pl.mapWaves,
		Reducers:        pl.reducers,
		Spilled:         pl.spilled,
		ShuffleDegraded: pl.degraded,
	}
}

// Arch identifies one of the measurement study's four architectures
// (Table I).
type Arch int

// The four architectures of Table I.
const (
	UpOFS Arch = iota
	UpHDFS
	OutOFS
	OutHDFS
)

// String returns the paper's name for the architecture.
func (a Arch) String() string {
	switch a {
	case UpOFS:
		return "up-OFS"
	case UpHDFS:
		return "up-HDFS"
	case OutOFS:
		return "out-OFS"
	case OutHDFS:
		return "out-HDFS"
	default:
		return fmt.Sprintf("Arch(%d)", int(a))
	}
}

// Arches lists the four architectures in Table I order.
func Arches() []Arch { return []Arch{UpOFS, UpHDFS, OutOFS, OutHDFS} }

// NewArch builds one of Table I's architectures with the paper's hardware
// and the given calibration.
func NewArch(a Arch, cal Calibration) (*Platform, error) {
	switch a {
	case UpOFS:
		return newOFSPlatform("up-OFS", cluster.ScaleUp2(), cal)
	case UpHDFS:
		return newHDFSPlatform("up-HDFS", cluster.ScaleUp2(), cal)
	case OutOFS:
		return newOFSPlatform("out-OFS", cluster.ScaleOut12(), cal)
	case OutHDFS:
		return newHDFSPlatform("out-HDFS", cluster.ScaleOut12(), cal)
	default:
		return nil, fmt.Errorf("mapreduce: unknown architecture %d", int(a))
	}
}

// MustArch is NewArch that panics on error, for tests and presets.
func MustArch(a Arch, cal Calibration) *Platform {
	p, err := NewArch(a, cal)
	if err != nil {
		panic(err)
	}
	return p
}

// NewTHadoop builds the trace experiment's THadoop baseline: 24 scale-out
// machines with HDFS (§V).
func NewTHadoop(cal Calibration) (*Platform, error) {
	return newHDFSPlatform("THadoop", cluster.ScaleOut24(), cal)
}

// NewRHadoop builds the trace experiment's RHadoop baseline: 24 scale-out
// machines with OFS (§V).
func NewRHadoop(cal Calibration) (*Platform, error) {
	return newOFSPlatform("RHadoop", cluster.ScaleOut24(), cal)
}

func newHDFSPlatform(name string, spec cluster.Spec, cal Calibration) (*Platform, error) {
	return NewHDFSPlatform(name, spec, cal, nil)
}

// NewHDFSPlatform builds a cluster backed by the HDFS model configured for
// its machines; mutate, when non-nil, adjusts the HDFS configuration before
// construction (used by the ablation benches, e.g. to change the
// replication factor).
func NewHDFSPlatform(name string, spec cluster.Spec, cal Calibration, mutate func(*hdfs.Config)) (*Platform, error) {
	m := spec.Machine
	cfg := hdfs.DefaultConfig(spec.Machines, m.DiskCapacity, m.DiskBW)
	cfg.PageCachePerNode = pageCacheBudget(m, spec)
	if mutate != nil {
		mutate(&cfg)
	}
	fs, err := hdfs.New(cfg)
	if err != nil {
		return nil, err
	}
	return NewPlatform(name, spec, fs, cal)
}

// pageCacheBudget estimates the RAM left for the OS page cache on one
// machine: total RAM minus the tmpfs shuffle store, the task JVM heaps and
// an OS reserve, with a safety factor of 4 for cache churn. On the paper's
// scale-up machines this leaves ≈13 GB per node — which is exactly why their
// HDFS keeps winning up to ≈8 GB inputs and loses beyond 16 GB (§III-B);
// the scale-out machines' 16 GB of RAM leaves nothing.
func pageCacheBudget(m cluster.MachineSpec, spec cluster.Spec) units.Bytes {
	const osReserve = 8 * units.GB
	heaps := units.Bytes(m.Cores) * m.HeapShuffle
	free := m.RAM - m.RAMDiskCapacity() - heaps - osReserve
	if free <= 0 {
		return 0
	}
	return free / 4
}

func newOFSPlatform(name string, spec cluster.Spec, cal Calibration) (*Platform, error) {
	fs, err := ofs.New(ofs.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return NewPlatform(name, spec, fs, cal)
}
