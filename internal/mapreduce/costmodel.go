package mapreduce

import (
	"fmt"
	"math"
	"time"

	"hybridmr/internal/apps"
	"hybridmr/internal/cluster"
	"hybridmr/internal/storage"
	"hybridmr/internal/units"
)

// Calibration holds the tunable constants of the cost model. Default()
// reproduces the paper's orderings and cross points (validated by the
// calibration tests in this package); other deployments can re-tune and
// re-measure, as the paper recommends (§IV: "other designers can follow the
// same method to measure the cross points in their systems").
//
// Calibration must stay comparable: the sweep cache and the figures setup
// memo key on its == equality, which covers every field by construction.
type Calibration struct {
	// BlockSize is the HDFS block / OFS stripe size; 128 MB in the paper.
	BlockSize units.Bytes
	// TaskStartup is the per-map-task launch cost (JVM spawn, split
	// localization) on the baseline core; divided by a machine's
	// CPUFactor.
	TaskStartup time.Duration
	// ReduceStartup is the per-reduce-task launch cost, same scaling.
	ReduceStartup time.Duration
	// JobSetup is the per-job setup/cleanup cost (setup task, staging),
	// also divided by CPUFactor; the file system adds its JobOverhead.
	JobSetup time.Duration
	// ReadDuty and WriteDuty discount concurrent file-system streams by
	// the fraction of task lifetime spent on that I/O.
	ReadDuty, WriteDuty float64
	// ShuffleWriteDuty is the duty cycle of map-output writes to the
	// shuffle store.
	ShuffleWriteDuty float64
	// HeapShuffleFraction is the fraction of a reducer's heap available
	// for in-memory shuffle buffers (mapred's memory limits).
	HeapShuffleFraction float64
	// BytesPerReducer sizes the automatic reducer count:
	// ceil(shuffle/BytesPerReducer), capped by the reduce slots.
	BytesPerReducer units.Bytes
	// SpillPasses is the number of extra passes over the shuffle tail
	// when reducers overflow their buffers and spill to the store.
	SpillPasses float64
	// ShuffleLatency is the fixed cost of the copy/merge tail.
	ShuffleLatency time.Duration
	// MaxTaskAttempts bounds how often one task is retried after
	// injected failures before the whole job fails, mirroring Hadoop's
	// mapred.map.max.attempts (default 4).
	MaxTaskAttempts int
	// SpeculationCap bounds how much longer than its nominal duration a
	// straggling task may run before speculative execution cuts it off
	// (Hadoop's backup tasks; 1.3 = at most 30% over nominal).
	SpeculationCap float64
}

// DefaultCalibration returns the constants tuned to the paper's results.
func DefaultCalibration() Calibration {
	return Calibration{
		BlockSize:           128 * units.MB,
		TaskStartup:         1670 * time.Millisecond,
		ReduceStartup:       4060 * time.Millisecond,
		JobSetup:            4030 * time.Millisecond,
		ReadDuty:            0.35,
		WriteDuty:           0.25,
		ShuffleWriteDuty:    0.054,
		HeapShuffleFraction: 0.7,
		BytesPerReducer:     units.GB,
		SpillPasses:         1.0,
		ShuffleLatency:      200 * time.Millisecond,
		MaxTaskAttempts:     4,
		SpeculationCap:      1.3,
	}
}

// Validate reports calibration errors.
func (c Calibration) Validate() error {
	switch {
	case c.BlockSize <= 0:
		return fmt.Errorf("mapreduce: block size %d", c.BlockSize)
	case c.TaskStartup < 0 || c.ReduceStartup < 0 || c.JobSetup < 0:
		return fmt.Errorf("mapreduce: negative startup cost")
	case c.ReadDuty <= 0 || c.ReadDuty > 1:
		return fmt.Errorf("mapreduce: read duty %v", c.ReadDuty)
	case c.WriteDuty <= 0 || c.WriteDuty > 1:
		return fmt.Errorf("mapreduce: write duty %v", c.WriteDuty)
	case c.ShuffleWriteDuty <= 0 || c.ShuffleWriteDuty > 1:
		return fmt.Errorf("mapreduce: shuffle write duty %v", c.ShuffleWriteDuty)
	case c.HeapShuffleFraction <= 0 || c.HeapShuffleFraction > 1:
		return fmt.Errorf("mapreduce: heap fraction %v", c.HeapShuffleFraction)
	case c.BytesPerReducer <= 0:
		return fmt.Errorf("mapreduce: bytes per reducer %d", c.BytesPerReducer)
	case c.SpillPasses < 0:
		return fmt.Errorf("mapreduce: spill passes %v", c.SpillPasses)
	case c.ShuffleLatency < 0:
		return fmt.Errorf("mapreduce: negative shuffle latency")
	case c.MaxTaskAttempts < 1:
		return fmt.Errorf("mapreduce: max task attempts %d below 1", c.MaxTaskAttempts)
	case c.SpeculationCap < 1:
		return fmt.Errorf("mapreduce: speculation cap %v below 1", c.SpeculationCap)
	}
	return nil
}

// plan is the fully resolved timing of one job on one platform. The event
// simulator executes it; RunIsolated evaluates it in closed form.
type plan struct {
	mapTasks int
	mapWaves int
	reducers int
	overhead time.Duration         // job setup + FS job overhead
	task     [nKinds]time.Duration // duration of one map / reduce task
	shuffle  time.Duration         // shuffle tail after last map
	spilled  bool
	degraded bool
}

// planJob resolves a job's task layout and durations on the platform.
func (p *Platform) planJob(job Job) (plan, error) {
	if err := job.Validate(); err != nil {
		return plan{}, err
	}
	cal := p.Cal
	prof := job.App
	spec := p.Spec
	m := spec.Machine
	cpu := m.CPUFactor

	input := job.Input
	shuffleBytes := prof.ShuffleBytes(input)
	outputBytes := prof.OutputBytes(input)

	// Stored input: DFSIO-write generates data, so only its output (the
	// written files) occupies the file system.
	storedIn := input
	if !prof.MapReadsInput {
		storedIn = 0
	}
	storedOut := outputBytes.SatAdd(prof.MapFSWriteRatio.Apply(input))
	if err := p.FS.CheckJobFit(storedIn, storedOut); err != nil {
		return plan{}, err
	}

	blocks := input.Blocks(cal.BlockSize)
	if blocks < 1 {
		blocks = 1
	}
	if job.MapTasks > blocks {
		// Many-small-files inputs: one map task per file.
		blocks = job.MapTasks
	}
	if blocks > math.MaxInt32 {
		// The simulator keeps task IDs in int32 (taskEntry); the reduce IDs
		// are checked once the reducer count is known.
		return plan{}, fmt.Errorf("mapreduce: job %s: %d map tasks exceed the simulator's %d", job.ID, blocks, math.MaxInt32)
	}
	mapSlots := spec.MapSlots()
	waves := (blocks + mapSlots - 1) / mapSlots
	active := blocks
	if active > mapSlots {
		active = mapSlots
	}
	tpn := spec.TasksPerNode(active)

	ctx := storage.AccessContext{
		ActiveTasks:  active,
		TasksPerNode: tpn,
		Nodes:        spec.Machines,
		NodeNIC:      m.NICBW,
		NodeDiskBW:   m.DiskBW,
		DatasetBytes: storedIn,
		ReadDuty:     cal.ReadDuty,
		WriteDuty:    cal.WriteDuty,
	}
	if err := ctx.Validate(); err != nil {
		return plan{}, err
	}

	blockBytes := cal.BlockSize
	if perTask := input / units.Bytes(blocks); perTask < blockBytes {
		blockBytes = perTask
	}

	// Shuffle store: RAM disk on scale-up machines unless the job's
	// shuffle data overflows it, in which case Hadoop falls back to the
	// local disks (mapred.local.dir).
	storeBW := m.ShuffleStoreBW()
	degraded := false
	if totalStore := units.Bytes(spec.Machines) * m.ShuffleStoreCapacity(); shuffleBytes > totalStore {
		// The RAM disk overflows: the fraction that fits stays in
		// tmpfs, the rest spills to the local disks, so the effective
		// bandwidth is the harmonic blend of the two media.
		degraded = true
		frac := float64(totalStore) / float64(shuffleBytes)
		inv := frac/float64(m.ShuffleStoreBW()) + (1-frac)/float64(m.DiskBW)
		storeBW = units.BytesPerSec(1 / inv)
	}

	// ---- Map task duration ----
	mapTask := scaleDur(cal.TaskStartup, cpu)
	if prof.MapReadsInput {
		mapTask += p.FS.TaskReadLatency()
		mapTask += units.Transfer(blockBytes, p.FS.PerTaskReadBW(ctx))
	}
	mapTask += units.Transfer(blockBytes, prof.MapRate*units.BytesPerSec(cpu))
	if mapOut := prof.ShuffleInputRatio.Apply(blockBytes); mapOut > 0 {
		writers := float64(tpn) * cal.ShuffleWriteDuty
		if writers < 1 {
			writers = 1
		}
		perTaskStore := units.BytesPerSec(float64(storeBW) / writers)
		mapTask += units.Transfer(mapOut, perTaskStore)
	}
	if fsOut := prof.MapFSWriteRatio.Apply(blockBytes); fsOut > 0 {
		mapTask += p.FS.TaskWriteLatency()
		mapTask += units.Transfer(fsOut, p.FS.PerTaskWriteBW(ctx))
	}

	// ---- Reducer count, spill decision ----
	reduceSlots := spec.ReduceSlots()
	reducers := job.Reducers
	if reducers <= 0 {
		reducers = shuffleBytes.Blocks(cal.BytesPerReducer)
		if reducers < 1 {
			reducers = 1
		}
		if reducers > reduceSlots {
			reducers = reduceSlots
		}
	}
	if reducers-1 > math.MaxInt32-blocks {
		// Reduce IDs follow the map IDs, so the last one, blocks+reducers-1,
		// must fit int32 too.
		return plan{}, fmt.Errorf("mapreduce: job %s: %d map + %d reduce tasks need task IDs beyond the simulator's %d",
			job.ID, blocks, reducers, math.MaxInt32)
	}
	heap := m.HeapShuffle
	if prof.Class == apps.MapIntensive {
		heap = m.HeapMap
	}
	buffer := heap.Scale(cal.HeapShuffleFraction)
	perReducer := shuffleBytes / units.Bytes(reducers)
	spilled := perReducer > buffer

	// ---- Shuffle tail ----
	// Copying overlaps the map phase; the measured shuffle phase (last
	// shuffle end − last map end, §III-A) is the residual copy and merge
	// of the last map wave's output, bounded by the cluster network and
	// the shuffle store's aggregate write bandwidth — which is why the
	// scale-up machines' RAM disks keep this phase short (§III-B).
	tail := shuffleBytes / units.Bytes(waves)
	storeAgg := units.BytesPerSec(spec.Machines) * storeBW
	effBW := storage.MinBW(spec.AggregateNIC(), storeAgg)
	shuffleDur := cal.ShuffleLatency + units.Transfer(tail, effBW)
	if spilled {
		extra := cal.SpillPasses * float64(units.Transfer(tail, storeAgg))
		shuffleDur += time.Duration(extra)
	}

	// ---- Reduce task duration ----
	redTPN := spec.TasksPerNode(reducers)
	redCtx := ctx
	redCtx.ActiveTasks = reducers
	redCtx.TasksPerNode = redTPN
	redTask := scaleDur(cal.ReduceStartup, cpu)
	redTask += units.Transfer(perReducer, prof.ReduceRate*units.BytesPerSec(cpu))
	if outputBytes > 0 {
		perRedOut := outputBytes / units.Bytes(reducers)
		redTask += p.FS.TaskWriteLatency()
		redTask += units.Transfer(perRedOut, p.FS.PerTaskWriteBW(redCtx))
	}

	overhead := p.FS.JobOverhead() + scaleDur(cal.JobSetup, cpu)

	return plan{
		mapTasks: blocks,
		mapWaves: waves,
		reducers: reducers,
		overhead: overhead,
		task:     [nKinds]time.Duration{kMap: mapTask, kRed: redTask},
		shuffle:  shuffleDur,
		spilled:  spilled,
		degraded: degraded,
	}, nil
}

// scaleDur divides a baseline duration by the CPU speed factor.
func scaleDur(d time.Duration, cpu float64) time.Duration {
	if cpu <= 0 {
		return d
	}
	return time.Duration(float64(d) / cpu)
}

// reduceWaves returns how many reduce waves the plan needs on the cluster.
func (pl plan) reduceWaves(spec cluster.Spec) int {
	slots := spec.ReduceSlots()
	return (pl.reducers + slots - 1) / slots
}
