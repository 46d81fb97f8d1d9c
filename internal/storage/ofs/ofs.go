// Package ofs models OrangeFS, the dedicated remote parallel file system of
// the paper's up-OFS and out-OFS architectures (§II-B, §II-D): 32 storage
// servers on Myrinet, data striped across servers in 128 MB stripes, no
// replication. Its aggregate bandwidth beats local disks for large jobs,
// while its fixed per-request network latency — independent of data size —
// is why HDFS wins for small jobs (§III-B).
package ofs

import (
	"fmt"
	"time"

	"hybridmr/internal/storage"
	"hybridmr/internal/units"
)

// Config parameterizes the OFS model.
type Config struct {
	// Servers is the number of storage servers (32 on Palmetto).
	Servers int
	// ServerBW is each server's disk-array bandwidth (5× SATA RAID-5).
	ServerBW units.BytesPerSec
	// ServerCapacity is each server's usable capacity.
	ServerCapacity units.Bytes
	// StripeSize is the striping unit; the paper sets 128 MB to compare
	// fairly with the HDFS block size (§II-D).
	StripeSize units.Bytes
	// StripeWidth is the number of servers a single file is striped over
	// (§II-D uses 8 = 1 GB / 128 MB).
	StripeWidth int
	// StreamBW caps what a single task's stream can pull through its
	// stripe set.
	StreamBW units.BytesPerSec
	// RequestLatency is the fixed per-task remote-access cost (metadata
	// server round trips, connection setup through the JNI shim). The
	// paper: "network latency ... is independent of the data size".
	RequestLatency time.Duration
	// WriteLatency is the per-task cost of creating a remote file.
	WriteLatency time.Duration
	// JobOverheadTime is the per-job remote staging/metadata cost.
	JobOverheadTime time.Duration
	// RebuildTax is the fraction of surviving server bandwidth consumed by
	// recovery traffic per lost server (scaled by the lost fraction):
	// restriping files off the failed servers' RAID sets competes with job
	// I/O on the survivors.
	RebuildTax float64
}

// DefaultConfig returns the Palmetto OFS deployment as configured in the
// paper.
func DefaultConfig() Config {
	return Config{
		Servers:         32,
		ServerBW:        units.MBps(300),
		ServerCapacity:  8 * units.TB,
		StripeSize:      128 * units.MB,
		StripeWidth:     8,
		StreamBW:        units.MBps(250),
		RequestLatency:  2185 * time.Millisecond,
		WriteLatency:    1086 * time.Millisecond,
		JobOverheadTime: 2 * time.Second,
		RebuildTax:      0.25,
	}
}

// System is the OFS model; it implements storage.System.
type System struct {
	cfg Config
}

// New validates the configuration and builds the model.
func New(cfg Config) (*System, error) {
	switch {
	case cfg.Servers < 1:
		return nil, fmt.Errorf("ofs: %d servers", cfg.Servers)
	case cfg.ServerBW <= 0:
		return nil, fmt.Errorf("ofs: non-positive server bandwidth")
	case cfg.ServerCapacity <= 0:
		return nil, fmt.Errorf("ofs: non-positive server capacity")
	case cfg.StripeSize <= 0:
		return nil, fmt.Errorf("ofs: non-positive stripe size")
	case cfg.StripeWidth < 1 || cfg.StripeWidth > cfg.Servers:
		return nil, fmt.Errorf("ofs: stripe width %d outside [1, %d]", cfg.StripeWidth, cfg.Servers)
	case cfg.StreamBW <= 0:
		return nil, fmt.Errorf("ofs: non-positive stream bandwidth")
	case cfg.RebuildTax < 0 || cfg.RebuildTax >= 1:
		return nil, fmt.Errorf("ofs: rebuild tax %v outside [0,1)", cfg.RebuildTax)
	}
	return &System{cfg: cfg}, nil
}

// Config returns the model's configuration.
func (s *System) Config() Config { return s.cfg }

// Name implements storage.System.
func (s *System) Name() string { return "OFS" }

// View implements storage.System. Lost servers shrink the aggregate
// bandwidth and capacity with the survivors, files stripe only over the
// servers that remain, and restriping traffic taxes the survivors'
// bandwidth by RebuildTax scaled by the lost fraction. The servers sit
// behind their own fabric links, so a NIC throttle then divides what each
// surviving server can deliver. Capacity and striping ignore the throttle.
// Losing every server is an error — the file system is gone, not degraded.
func (s *System) View(lost int, nic float64) (storage.System, error) {
	if lost == 0 && nic == 1 {
		return s, nil
	}
	if lost < 0 {
		return nil, fmt.Errorf("ofs: negative server loss %d", lost)
	}
	cfg := s.cfg
	if lost >= cfg.Servers {
		return nil, fmt.Errorf("ofs: losing %d of %d servers leaves no survivors", lost, cfg.Servers)
	}
	frac := float64(lost) / float64(cfg.Servers)
	cfg.Servers -= lost
	cfg.StripeWidth = min(cfg.StripeWidth, cfg.Servers)
	cfg.ServerBW = units.BytesPerSec(float64(cfg.ServerBW) * (1 - cfg.RebuildTax*frac))
	cfg.ServerBW = units.BytesPerSec(float64(cfg.ServerBW) / nic)
	return New(cfg)
}

// AggregateBW returns the file system's total server bandwidth.
func (s *System) AggregateBW() units.BytesPerSec {
	return s.cfg.ServerBW * units.BytesPerSec(s.cfg.Servers)
}

// UsableCapacity returns the total capacity (OFS has no replication; §II-D
// notes it lacks built-in replication support).
func (s *System) UsableCapacity() units.Bytes {
	return units.Bytes(s.cfg.Servers) * s.cfg.ServerCapacity
}

// CheckJobFit implements storage.System.
func (s *System) CheckJobFit(input, output units.Bytes) error {
	return storage.CheckFit("ofs", input, output, s.UsableCapacity())
}

// perTaskBW bounds one task's bandwidth by the single-stream cap, the
// cluster-wide share of the servers' aggregate bandwidth, and the task's
// share of its compute node's NIC.
func (s *System) perTaskBW(global, perNode float64, nic units.BytesPerSec) units.BytesPerSec {
	stripeBW := s.cfg.ServerBW * units.BytesPerSec(s.cfg.StripeWidth)
	stream := storage.MinBW(s.cfg.StreamBW, stripeBW)
	aggShare := units.BytesPerSec(float64(s.AggregateBW()) / global)
	nicShare := units.BytesPerSec(float64(nic) / perNode)
	return storage.MinBW(stream, aggShare, nicShare)
}

// PerTaskReadBW implements storage.System.
func (s *System) PerTaskReadBW(ctx storage.AccessContext) units.BytesPerSec {
	return s.perTaskBW(ctx.ReadersGlobal(), ctx.ReadersPerNode(), ctx.NodeNIC)
}

// PerTaskWriteBW implements storage.System. Writes are symmetric to reads:
// no replication pipeline, same striping.
func (s *System) PerTaskWriteBW(ctx storage.AccessContext) units.BytesPerSec {
	return s.perTaskBW(ctx.WritersGlobal(), ctx.WritersPerNode(), ctx.NodeNIC)
}

// TaskReadLatency implements storage.System.
func (s *System) TaskReadLatency() time.Duration { return s.cfg.RequestLatency }

// TaskWriteLatency implements storage.System.
func (s *System) TaskWriteLatency() time.Duration { return s.cfg.WriteLatency }

// JobOverhead implements storage.System.
func (s *System) JobOverhead() time.Duration { return s.cfg.JobOverheadTime }

// ServersForFile returns how many servers hold a file of the given size:
// ceil(size/stripe), capped by the stripe width (§II-D: a 1 GB file with
// 128 MB stripes uses 8 servers).
func (s *System) ServersForFile(size units.Bytes) int {
	n := size.Blocks(s.cfg.StripeSize)
	if n > s.cfg.StripeWidth {
		return s.cfg.StripeWidth
	}
	if n < 1 {
		return 1
	}
	return n
}

var _ storage.System = (*System)(nil)
