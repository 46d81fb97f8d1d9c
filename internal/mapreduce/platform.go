package mapreduce

import (
	"fmt"
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

	// names interns the platform-prefixed metric names once at construction,
	// so every observed simulator reuses them instead of re-concatenating
	// (the simulators of a pooled ReplayState re-attach per replay).
	names *obsNames
}

// obsNames holds one platform's interned metric names (see observe).
type obsNames struct {
	mapsStarted, redsStarted, taskRetries   string
	jobsDone, jobsFailed                    string
	bytesInput, bytesShuffle                string
	mapBusy, redBusy, mapQueue, execSeconds string
}

// newObsNames builds the platform-prefixed metric name set.
func newObsNames(name string) *obsNames {
	return &obsNames{
		mapsStarted:  name + ".tasks.map.started",
		redsStarted:  name + ".tasks.reduce.started",
		taskRetries:  name + ".tasks.retries",
		jobsDone:     name + ".jobs.done",
		jobsFailed:   name + ".jobs.failed",
		bytesInput:   name + ".bytes.input",
		bytesShuffle: name + ".bytes.shuffle",
		mapBusy:      name + ".slots.map.busy",
		redBusy:      name + ".slots.reduce.busy",
		mapQueue:     name + ".queue.map.depth",
		execSeconds:  name + ".job.exec.seconds",
	}
}

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
	return &Platform{Name: name, Spec: spec, FS: fs, Cal: cal, names: newObsNames(name)}, nil
}

// Degraded returns the platform with machinesDown compute machines and
// storageDown storage servers (OFS) or datanodes (HDFS) removed. Both counts
// are cumulative from the receiver, which must be the healthy platform — the
// fault layer always derives degraded views from the healthy base, never from
// another degraded view. The degraded platform carries a distinct name, so
// cache keys and reports embedding it never alias the healthy platform.
// Losing every machine, or storage the file system cannot survive, is an
// error.
func (p *Platform) Degraded(machinesDown, storageDown int) (*Platform, error) {
	if machinesDown == 0 && storageDown == 0 {
		return p, nil
	}
	if machinesDown < 0 || storageDown < 0 {
		return nil, fmt.Errorf("mapreduce: platform %s: negative degradation (%d machines, %d servers)", p.Name, machinesDown, storageDown)
	}
	spec, err := p.Spec.WithMachines(p.Spec.Machines - machinesDown)
	if err != nil {
		return nil, err
	}
	fs := p.FS
	if storageDown > 0 {
		deg, ok := p.FS.(storage.Degradable)
		if !ok {
			return nil, fmt.Errorf("mapreduce: platform %s: file system %s does not model server loss", p.Name, p.FS.Name())
		}
		fs, err = deg.Degrade(storageDown)
		if err != nil {
			return nil, err
		}
	}
	name := fmt.Sprintf("%s[-%dm,-%ds]", p.Name, machinesDown, storageDown)
	return NewPlatform(name, spec, fs, p.Cal)
}

// RunIsolated runs one job alone on the platform, as in the paper's
// measurement study (§III), and returns its phase durations in closed form.
// The result is identical to running the job through an empty Simulator.
func (p *Platform) RunIsolated(job Job) Result {
	pl, err := p.planJob(job)
	if err != nil {
		return Result{Job: job, Platform: p.Name, Err: err}
	}
	mapPhase := time.Duration(pl.mapWaves) * pl.mapTask
	reducePhase := time.Duration(pl.reduceWaves(p.Spec)) * pl.redTask
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
	cfg := hdfs.DefaultConfig(spec.Machines, m.DiskCapacity, m.DiskBW, m.NICBW)
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
