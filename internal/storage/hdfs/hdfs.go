// Package hdfs models the Hadoop Distributed File System of the paper's
// up-HDFS and out-HDFS architectures: blocks replicated across the compute
// nodes' local disks, managed by a dedicated namenode (§II-C uses an extra
// machine as namenode for fairness). Reads are mostly node-local; writes pay
// the replication pipeline. Capacity is bounded by the local disks — the
// reason the paper's up-HDFS cannot run jobs above 80 GB.
package hdfs

import (
	"fmt"
	"time"

	"hybridmr/internal/storage"
	"hybridmr/internal/units"
)

// Config parameterizes the HDFS model.
type Config struct {
	// Datanodes is the number of datanodes (the compute machines).
	Datanodes int
	// DiskCapacity and DiskBW describe each datanode's local disk.
	DiskCapacity units.Bytes
	DiskBW       units.BytesPerSec
	// BlockSize is the HDFS block size; the paper sets 128 MB (§II-D).
	BlockSize units.Bytes
	// Replication is the block replication factor; the paper sets 2 for
	// its single-rack clusters (§II-D).
	Replication int
	// Reserve is the fraction of raw capacity kept free (non-DFS use,
	// temporary files). 0.1 reproduces the paper's 80 GB up-HDFS limit.
	Reserve float64
	// StreamBW caps a single reader/writer stream.
	StreamBW units.BytesPerSec
	// NonLocalFraction is the fraction of map tasks reading a block with
	// no local replica, served over the network.
	NonLocalFraction float64
	// ReadLatencyPerTask, WriteLatencyPerTask and JobOverheadTime are the
	// fixed namenode/metadata costs.
	ReadLatencyPerTask  time.Duration
	WriteLatencyPerTask time.Duration
	JobOverheadTime     time.Duration
	// PageCachePerNode is the RAM available per datanode for the OS page
	// cache. Datasets whose replicated volume fits the cluster's cache
	// read at PageCacheBW instead of disk speed — the reason the paper's
	// scale-up machines (505 GB RAM) keep their HDFS advantage up to
	// ≈8 GB inputs while their single local disk would otherwise thrash.
	PageCachePerNode units.Bytes
	// PageCacheBW is the per-node cached-read bandwidth.
	PageCacheBW units.BytesPerSec
	// RebuildTax is the fraction of surviving disk bandwidth consumed by
	// re-replication traffic per lost datanode (scaled by the lost
	// fraction): after a loss the namenode re-replicates every
	// under-replicated block, and that copy traffic competes with job I/O
	// on the surviving disks and NICs.
	RebuildTax float64
}

// DefaultConfig returns the HDFS model configured as in the paper for a
// cluster of n datanodes with the given per-node disk. The datanodes'
// network is the compute nodes' own (AccessContext.NodeNIC).
func DefaultConfig(n int, diskCapacity units.Bytes, diskBW units.BytesPerSec) Config {
	return Config{
		Datanodes:           n,
		DiskCapacity:        diskCapacity,
		DiskBW:              diskBW,
		BlockSize:           128 * units.MB,
		Replication:         2,
		Reserve:             0.1,
		StreamBW:            units.MBps(100),
		NonLocalFraction:    0.05,
		ReadLatencyPerTask:  100 * time.Millisecond,
		WriteLatencyPerTask: 150 * time.Millisecond,
		JobOverheadTime:     1 * time.Second,
		PageCachePerNode:    0,
		PageCacheBW:         units.GBps(2),
		RebuildTax:          0.30,
	}
}

// System is the HDFS model; it implements storage.System.
type System struct {
	cfg Config
}

// New validates the configuration and builds the model.
func New(cfg Config) (*System, error) {
	switch {
	case cfg.Datanodes < 1:
		return nil, fmt.Errorf("hdfs: %d datanodes", cfg.Datanodes)
	case cfg.DiskCapacity <= 0 || cfg.DiskBW <= 0:
		return nil, fmt.Errorf("hdfs: non-positive disk capacity or bandwidth")
	case cfg.BlockSize <= 0:
		return nil, fmt.Errorf("hdfs: non-positive block size")
	case cfg.Replication < 1:
		return nil, fmt.Errorf("hdfs: replication %d", cfg.Replication)
	case cfg.Reserve < 0 || cfg.Reserve >= 1:
		return nil, fmt.Errorf("hdfs: reserve %v outside [0,1)", cfg.Reserve)
	case cfg.StreamBW <= 0:
		return nil, fmt.Errorf("hdfs: non-positive stream bandwidth")
	case cfg.NonLocalFraction < 0 || cfg.NonLocalFraction > 1:
		return nil, fmt.Errorf("hdfs: non-local fraction %v outside [0,1]", cfg.NonLocalFraction)
	case cfg.PageCachePerNode > 0 && cfg.PageCacheBW <= 0:
		return nil, fmt.Errorf("hdfs: page cache without bandwidth")
	case cfg.PageCachePerNode < 0:
		return nil, fmt.Errorf("hdfs: negative page cache size")
	case cfg.RebuildTax < 0 || cfg.RebuildTax >= 1:
		return nil, fmt.Errorf("hdfs: rebuild tax %v outside [0,1)", cfg.RebuildTax)
	}
	return &System{cfg: cfg}, nil
}

// Config returns the model's configuration.
func (s *System) Config() Config { return s.cfg }

// Name implements storage.System.
func (s *System) Name() string { return "HDFS" }

// View implements storage.System. Capacity shrinks with the surviving
// datanodes; the lost fraction of blocks loses its local replica, so that
// share of reads goes remote; and re-replication traffic taxes the
// surviving disks by RebuildTax scaled by the lost fraction. HDFS has no
// links of its own: its replica pipeline and non-local reads cross the
// compute nodes' NICs, which the platform's cluster view throttles, so nic
// leaves the file system unchanged. Losing every datanode is an error —
// there is no cluster left to degrade.
func (s *System) View(lost int, nic float64) (storage.System, error) {
	if lost == 0 {
		return s, nil
	}
	if lost < 0 {
		return nil, fmt.Errorf("hdfs: negative datanode loss %d", lost)
	}
	cfg := s.cfg
	if lost >= cfg.Datanodes {
		return nil, fmt.Errorf("hdfs: losing %d of %d datanodes leaves no survivors", lost, cfg.Datanodes)
	}
	frac := float64(lost) / float64(cfg.Datanodes)
	cfg.Datanodes -= lost
	cfg.NonLocalFraction = min(cfg.NonLocalFraction+frac, 1)
	cfg.DiskBW = units.BytesPerSec(float64(cfg.DiskBW) * (1 - cfg.RebuildTax*frac))
	return New(cfg)
}

// UsableCapacity returns the input+output data volume the cluster can hold:
// raw disk, minus the reserve, divided by the replication factor.
func (s *System) UsableCapacity() units.Bytes {
	raw := units.Bytes(s.cfg.Datanodes) * s.cfg.DiskCapacity
	return raw.Scale((1 - s.cfg.Reserve) / float64(s.cfg.Replication))
}

// CheckJobFit implements storage.System.
func (s *System) CheckJobFit(input, output units.Bytes) error {
	return storage.CheckFit("hdfs", input, output, s.UsableCapacity())
}

// PerTaskReadBW implements storage.System. Local reads share the node's
// disk among the job's concurrent readers (duty-cycled); the non-local
// fraction is additionally throttled by the node's NIC share. The two paths
// blend harmonically, since a task's read time is the weighted sum of both.
func (s *System) PerTaskReadBW(ctx storage.AccessContext) units.BytesPerSec {
	readers := ctx.ReadersPerNode()
	mediumBW := s.cfg.DiskBW
	if s.cached(ctx.DatasetBytes) {
		mediumBW = s.cfg.PageCacheBW
	}
	local := storage.MinBW(s.cfg.StreamBW, units.BytesPerSec(float64(mediumBW)/readers))
	nicShare := units.BytesPerSec(float64(ctx.NodeNIC) / readers)
	remote := storage.MinBW(local, nicShare)
	f := s.cfg.NonLocalFraction
	if f == 0 || remote == local {
		return local
	}
	// Harmonic blend: time per byte = (1-f)/local + f/remote.
	inv := (1-f)/float64(local) + f/float64(remote)
	return units.BytesPerSec(1 / inv)
}

// cached reports whether a dataset's replicated volume fits the cluster's
// aggregate page cache, so reads are served from memory.
func (s *System) cached(dataset units.Bytes) bool {
	if s.cfg.PageCachePerNode <= 0 || dataset <= 0 {
		return false
	}
	replicated := dataset * units.Bytes(s.cfg.Replication)
	return replicated <= units.Bytes(s.cfg.Datanodes)*s.cfg.PageCachePerNode
}

// PerTaskWriteBW implements storage.System. Every byte is written
// Replication times: once to the local disk and over the network to the
// other replicas' disks, so the pipeline is bounded by the disk share
// divided by the replication factor and by the NIC share for the remote
// copies.
func (s *System) PerTaskWriteBW(ctx storage.AccessContext) units.BytesPerSec {
	writers := ctx.WritersPerNode()
	diskShare := units.BytesPerSec(float64(s.cfg.DiskBW) / writers / float64(s.cfg.Replication))
	bw := storage.MinBW(s.cfg.StreamBW, diskShare)
	if s.cfg.Replication > 1 {
		nicShare := units.BytesPerSec(float64(ctx.NodeNIC) / writers / float64(s.cfg.Replication-1))
		bw = storage.MinBW(bw, nicShare)
	}
	return bw
}

// TaskReadLatency implements storage.System.
func (s *System) TaskReadLatency() time.Duration { return s.cfg.ReadLatencyPerTask }

// TaskWriteLatency implements storage.System.
func (s *System) TaskWriteLatency() time.Duration { return s.cfg.WriteLatencyPerTask }

// JobOverhead implements storage.System.
func (s *System) JobOverhead() time.Duration { return s.cfg.JobOverheadTime }

var _ storage.System = (*System)(nil)
