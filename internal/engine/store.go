// Package engine is a real, executable in-process MapReduce engine: the
// functional substrate of the reproduction. Unlike internal/mapreduce (the
// performance model), this package actually runs map, shuffle and reduce
// over bytes, with worker pools standing in for task slots and two block
// stores mirroring the paper's file systems — an HDFS-like replicated local
// store and an OFS-like striped remote store. Wordcount, Grep and the
// TestDFSIO write test are implemented against it.
package engine

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"hybridmr/internal/storage/hdfs"
	"hybridmr/internal/units"
)

// Dataset is a stored input: a byte-addressable file divided into blocks.
type Dataset interface {
	io.ReaderAt
	// Size returns the dataset length in bytes.
	Size() units.Bytes
	// BlockSize returns the store's division unit.
	BlockSize() units.Bytes
	// NumBlocks returns ceil(Size/BlockSize).
	NumBlocks() int
}

// BlockStore stores named datasets divided into blocks, as HDFS and OFS do.
type BlockStore interface {
	// Name identifies the store kind ("mem-hdfs" or "mem-ofs").
	Name() string
	// Create stores a dataset; it fails if the name exists or capacity
	// is exceeded.
	Create(name string, data []byte) error
	// Open returns a stored dataset.
	Open(name string) (Dataset, error)
	// Delete removes a dataset; deleting a missing name is an error.
	Delete(name string) error
	// List returns the stored dataset names, sorted.
	List() []string
}

// dataset is the shared in-memory Dataset implementation.
type dataset struct {
	data  []byte
	block units.Bytes
}

func (d *dataset) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("engine: negative offset %d", off)
	}
	if off >= int64(len(d.data)) {
		return 0, io.EOF
	}
	n := copy(p, d.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (d *dataset) Size() units.Bytes      { return units.Bytes(len(d.data)) }
func (d *dataset) BlockSize() units.Bytes { return d.block }
func (d *dataset) NumBlocks() int         { return units.Bytes(len(d.data)).Blocks(d.block) }

// MemHDFS is an in-memory HDFS-like store: datasets are split into blocks
// with replica placement across datanodes (invariant: replicas on distinct
// nodes) and a total capacity bound — the mechanism behind the paper's
// 80 GB up-HDFS limit.
type MemHDFS struct {
	mu        sync.Mutex
	block     units.Bytes
	capacity  units.Bytes
	used      units.Bytes
	nodes     int
	repl      int
	placement *hdfs.Placement
	sets      map[string]*dataset
	locations map[string][][]int // dataset → per-block replica nodes
}

// NewMemHDFS creates a store over n datanodes with the given block size,
// replication factor and total (post-replication) capacity.
func NewMemHDFS(nodes int, block units.Bytes, replication int, capacity units.Bytes) (*MemHDFS, error) {
	if block <= 0 {
		return nil, fmt.Errorf("engine: block size %d", block)
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("engine: capacity %d", capacity)
	}
	p, err := hdfs.NewPlacement(nodes, replication)
	if err != nil {
		return nil, err
	}
	return &MemHDFS{
		block: block, capacity: capacity, nodes: nodes, repl: replication,
		placement: p,
		sets:      make(map[string]*dataset),
		locations: make(map[string][][]int),
	}, nil
}

// Name implements BlockStore.
func (s *MemHDFS) Name() string { return "mem-hdfs" }

// Create implements BlockStore.
func (s *MemHDFS) Create(name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sets[name]; ok {
		return fmt.Errorf("engine: dataset %q exists", name)
	}
	need := units.Bytes(len(data)) * units.Bytes(s.placement.EffectiveReplication())
	if s.used+need > s.capacity {
		return fmt.Errorf("engine: dataset %q needs %v, %v free: %w",
			name, need, s.capacity-s.used, errCapacity)
	}
	d := &dataset{data: append([]byte(nil), data...), block: s.block}
	locs := make([][]int, d.NumBlocks())
	for b := range locs {
		locs[b] = s.placement.Place(b, b%s.nodes)
	}
	s.sets[name] = d
	s.locations[name] = locs
	s.used += need
	return nil
}

// Open implements BlockStore.
func (s *MemHDFS) Open(name string) (Dataset, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.sets[name]
	if !ok {
		return nil, fmt.Errorf("engine: dataset %q not found", name)
	}
	return d, nil
}

// Delete implements BlockStore.
func (s *MemHDFS) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.sets[name]
	if !ok {
		return fmt.Errorf("engine: dataset %q not found", name)
	}
	s.used -= d.Size() * units.Bytes(s.placement.EffectiveReplication())
	delete(s.sets, name)
	delete(s.locations, name)
	return nil
}

// List implements BlockStore.
func (s *MemHDFS) List() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.sets))
	for n := range s.sets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

var errCapacity = fmt.Errorf("engine: store capacity exceeded")

// ErrCapacity reports whether err is a store-capacity failure.
func ErrCapacity(err error) bool {
	for err != nil {
		if err == errCapacity {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// MemOFS is an in-memory OFS-like store: datasets are striped round-robin
// across storage servers (no replication), shared by every compute cluster
// that mounts it — which is what lets the paper's hybrid run a job on either
// cluster without moving data.
type MemOFS struct {
	mu      sync.Mutex
	stripe  units.Bytes
	servers int
	sets    map[string]*dataset
	perSrv  []units.Bytes // bytes stored per server, for balance checks
}

// NewMemOFS creates a striped store over the given server count.
func NewMemOFS(servers int, stripe units.Bytes) (*MemOFS, error) {
	if servers < 1 {
		return nil, fmt.Errorf("engine: %d servers", servers)
	}
	if stripe <= 0 {
		return nil, fmt.Errorf("engine: stripe size %d", stripe)
	}
	return &MemOFS{
		stripe: stripe, servers: servers,
		sets:   make(map[string]*dataset),
		perSrv: make([]units.Bytes, servers),
	}, nil
}

// Name implements BlockStore.
func (s *MemOFS) Name() string { return "mem-ofs" }

// Create implements BlockStore.
func (s *MemOFS) Create(name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sets[name]; ok {
		return fmt.Errorf("engine: dataset %q exists", name)
	}
	d := &dataset{data: append([]byte(nil), data...), block: s.stripe}
	for b := 0; b < d.NumBlocks(); b++ {
		start := int64(b) * int64(s.stripe)
		end := start + int64(s.stripe)
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		s.perSrv[b%s.servers] += units.Bytes(end - start)
	}
	s.sets[name] = d
	return nil
}

// Open implements BlockStore.
func (s *MemOFS) Open(name string) (Dataset, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.sets[name]
	if !ok {
		return nil, fmt.Errorf("engine: dataset %q not found", name)
	}
	return d, nil
}

// Delete implements BlockStore.
func (s *MemOFS) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.sets[name]
	if !ok {
		return fmt.Errorf("engine: dataset %q not found", name)
	}
	for b := 0; b < d.NumBlocks(); b++ {
		start := int64(b) * int64(s.stripe)
		end := start + int64(s.stripe)
		if end > int64(d.Size()) {
			end = int64(d.Size())
		}
		s.perSrv[b%s.servers] -= units.Bytes(end - start)
	}
	delete(s.sets, name)
	return nil
}

// List implements BlockStore.
func (s *MemOFS) List() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.sets))
	for n := range s.sets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

var (
	_ BlockStore = (*MemHDFS)(nil)
	_ BlockStore = (*MemOFS)(nil)
)
