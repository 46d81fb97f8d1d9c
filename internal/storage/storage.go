// Package storage defines the file-system abstraction the MapReduce
// simulator reads and writes through. Two implementations mirror the
// paper's study: internal/storage/hdfs models the Hadoop Distributed File
// System on the compute nodes' local disks, and internal/storage/ofs models
// OrangeFS, the dedicated remote striped file system the Clemson cluster
// mounts on both the scale-up and the scale-out machines.
//
// The simulator never moves bytes; it asks a System for effective per-task
// bandwidths and fixed latencies under a given concurrency (AccessContext)
// and converts them into simulated time.
package storage

import (
	"errors"
	"fmt"
	"time"

	"hybridmr/internal/units"
)

// ErrCapacity reports that a dataset does not fit the file system. The paper
// hits exactly this limit: up-HDFS cannot process jobs with input data size
// greater than 80 GB (§III-A).
var ErrCapacity = errors.New("storage: dataset exceeds file system capacity")

// CapacityError is CheckJobFit's rejection: the job's input plus output
// (Need) exceeds the data volume the file system can hold (Usable). It
// unwraps to ErrCapacity. The message is formatted only when asked for, so
// a sweep that probes many over-capacity points builds no string for them.
type CapacityError struct {
	// FS names the file system model ("hdfs" or "ofs").
	FS           string
	Need, Usable units.Bytes
}

func (e *CapacityError) Error() string {
	return fmt.Sprintf("%s: job needs %v of %v usable: %v", e.FS, e.Need, e.Usable, ErrCapacity)
}

// Unwrap returns ErrCapacity.
func (e *CapacityError) Unwrap() error { return ErrCapacity }

// CheckFit is both file systems' CheckJobFit: a *CapacityError naming fs
// when input plus output exceeds usable. The sizes are non-negative; they
// are compared without summing, so a size near math.MaxInt64 cannot wrap
// past the check, and the reported need saturates (units.Bytes.SatAdd).
func CheckFit(fs string, input, output, usable units.Bytes) error {
	if input <= usable && output <= usable-input {
		return nil
	}
	return &CapacityError{FS: fs, Need: input.SatAdd(output), Usable: usable}
}

// AccessContext describes the concurrency under which tasks of one job
// access the file system. The duty cycles discount concurrent streams by the
// fraction of task lifetime actually spent on I/O; tasks overlapping compute
// with I/O do not all hit the disk at once.
type AccessContext struct {
	// ActiveTasks is the number of concurrently running tasks of the job
	// across the whole cluster.
	ActiveTasks int
	// TasksPerNode is the number of those tasks per compute node.
	TasksPerNode int
	// Nodes is the number of compute machines running the job.
	Nodes int
	// NodeNIC is each compute node's network bandwidth.
	NodeNIC units.BytesPerSec
	// NodeDiskBW is each compute node's local-disk bandwidth.
	NodeDiskBW units.BytesPerSec
	// DatasetBytes is the total data volume the job reads; file systems
	// with a page-cache model use it to decide whether reads are served
	// from memory (a dataset recently written and small enough to stay
	// cached) or from disk.
	DatasetBytes units.Bytes
	// ReadDuty and WriteDuty are the I/O duty-cycle discounts in (0, 1].
	ReadDuty, WriteDuty float64
}

// Validate reports an invalid context.
func (c AccessContext) Validate() error {
	switch {
	case c.ActiveTasks < 1:
		return fmt.Errorf("storage: ActiveTasks %d", c.ActiveTasks)
	case c.TasksPerNode < 1:
		return fmt.Errorf("storage: TasksPerNode %d", c.TasksPerNode)
	case c.Nodes < 1:
		return fmt.Errorf("storage: Nodes %d", c.Nodes)
	case c.ReadDuty <= 0 || c.ReadDuty > 1:
		return fmt.Errorf("storage: ReadDuty %v outside (0,1]", c.ReadDuty)
	case c.WriteDuty <= 0 || c.WriteDuty > 1:
		return fmt.Errorf("storage: WriteDuty %v outside (0,1]", c.WriteDuty)
	}
	return nil
}

// ReadersPerNode returns the effective number of concurrent readers per
// node: TasksPerNode discounted by ReadDuty, never below one stream.
func (c AccessContext) ReadersPerNode() float64 { return streams(c.TasksPerNode, c.ReadDuty) }

// WritersPerNode is the write-side analogue of ReadersPerNode.
func (c AccessContext) WritersPerNode() float64 { return streams(c.TasksPerNode, c.WriteDuty) }

// ReadersGlobal returns the effective number of concurrent readers across
// the cluster: ActiveTasks discounted by ReadDuty, never below one stream.
func (c AccessContext) ReadersGlobal() float64 { return streams(c.ActiveTasks, c.ReadDuty) }

// WritersGlobal is the write-side analogue of ReadersGlobal.
func (c AccessContext) WritersGlobal() float64 { return streams(c.ActiveTasks, c.WriteDuty) }

// streams discounts n concurrent tasks by an I/O duty cycle, never below
// one stream.
func streams(n int, duty float64) float64 {
	s := float64(n) * duty
	if s < 1 {
		return 1
	}
	return s
}

// System is the file-system model the simulator runs jobs against.
type System interface {
	// Name returns a short identifier ("HDFS" or "OFS").
	Name() string
	// PerTaskReadBW returns the effective bandwidth one task sees when
	// reading its input split under the given concurrency.
	PerTaskReadBW(ctx AccessContext) units.BytesPerSec
	// PerTaskWriteBW is the write-side analogue (job output, or the data
	// a TestDFSIO-write map task produces).
	PerTaskWriteBW(ctx AccessContext) units.BytesPerSec
	// TaskReadLatency is the fixed per-task cost of opening the input
	// (metadata lookups; for OFS this includes the remote round trips the
	// paper identifies as the reason HDFS beats OFS on small jobs).
	TaskReadLatency() time.Duration
	// TaskWriteLatency is the fixed per-task cost of creating the output.
	TaskWriteLatency() time.Duration
	// JobOverhead is the fixed per-job metadata/staging cost.
	JobOverhead() time.Duration
	// CheckJobFit reports a *CapacityError, which wraps ErrCapacity, when
	// input plus output data cannot be stored.
	CheckJobFit(input, output units.Bytes) error
	// View returns the file system with `lost` storage servers (OFS) or
	// datanodes (HDFS) down and its network links slowed by the factor
	// nic ≥ 1, computed from the receiver's configuration alone.
	// mapreduce.Platform.View, the one place that combines levels, calls it
	// on the healthy system with the view's total levels, and only the
	// platform's name carries them. Lost servers shrink
	// capacity and tax the survivors with rebuild traffic; a slow link only
	// slows. View(0, 1) returns the receiver, and a loss that leaves no
	// survivors is an error. The caller validates nic.
	View(lost int, nic float64) (System, error)
}

// MinBW returns the smallest positive bandwidth among its arguments;
// non-positive values are ignored. It returns 0 only if every argument is
// non-positive.
func MinBW(bws ...units.BytesPerSec) units.BytesPerSec {
	var best units.BytesPerSec
	for _, bw := range bws {
		if bw <= 0 {
			continue
		}
		if best == 0 || bw < best {
			best = bw
		}
	}
	return best
}
