package engine

import (
	"bytes"
	"testing"
	"testing/quick"

	"hybridmr/internal/units"
)

func TestMemHDFSValidation(t *testing.T) {
	if _, err := NewMemHDFS(0, units.KB, 2, units.MB); err == nil {
		t.Error("0 nodes accepted")
	}
	if _, err := NewMemHDFS(4, 0, 2, units.MB); err == nil {
		t.Error("0 block accepted")
	}
	if _, err := NewMemHDFS(4, units.KB, 0, units.MB); err == nil {
		t.Error("0 replication accepted")
	}
	if _, err := NewMemHDFS(4, units.KB, 2, 0); err == nil {
		t.Error("0 capacity accepted")
	}
}

func TestMemHDFSLifecycle(t *testing.T) {
	s, err := NewMemHDFS(4, units.KB, 2, units.MB)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("hello world\n"), 400) // ≈4.7 KB, 5 blocks
	if err := s.Create("d", data); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("d", data); err == nil {
		t.Error("duplicate name accepted")
	}
	ds, err := s.Open("d")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Size() != units.Bytes(len(data)) {
		t.Errorf("size = %d", ds.Size())
	}
	if ds.NumBlocks() != 5 {
		t.Errorf("blocks = %d, want 5", ds.NumBlocks())
	}
	buf := make([]byte, len(data))
	if _, err := readFull(ds, buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Error("data corrupted")
	}
	if got := s.used; got != 2*units.Bytes(len(data)) {
		t.Errorf("Used = %d, want replicated size %d", got, 2*len(data))
	}
	if got := s.List(); len(got) != 1 || got[0] != "d" {
		t.Errorf("List = %v", got)
	}
	if err := s.Delete("d"); err != nil {
		t.Fatal(err)
	}
	if s.used != 0 {
		t.Errorf("Used after delete = %d", s.used)
	}
	if err := s.Delete("d"); err == nil {
		t.Error("double delete accepted")
	}
	if _, err := s.Open("d"); err == nil {
		t.Error("open after delete succeeded")
	}
}

// The replicated volume is bounded by capacity — the up-HDFS mechanism.
func TestMemHDFSCapacity(t *testing.T) {
	s, _ := NewMemHDFS(2, units.KB, 2, 10*units.KB)
	if err := s.Create("a", make([]byte, 4*units.KB)); err != nil {
		t.Fatal(err) // 8 KB replicated
	}
	err := s.Create("b", make([]byte, 2*units.KB)) // needs 4 KB more
	if err == nil || !ErrCapacity(err) {
		t.Errorf("over-capacity create: %v", err)
	}
	// Freeing space admits it.
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("b", make([]byte, 2*units.KB)); err != nil {
		t.Errorf("create after delete: %v", err)
	}
	if ErrCapacity(nil) {
		t.Error("ErrCapacity(nil)")
	}
}

func TestMemHDFSBlockLocations(t *testing.T) {
	s, _ := NewMemHDFS(6, units.KB, 3, units.MB)
	if err := s.Create("d", make([]byte, 10*units.KB)); err != nil {
		t.Fatal(err)
	}
	locs := s.locations["d"]
	if len(locs) != 10 {
		t.Fatalf("%d blocks", len(locs))
	}
	for b, nodes := range locs {
		if len(nodes) != 3 {
			t.Fatalf("block %d has %d replicas", b, len(nodes))
		}
		seen := map[int]bool{}
		for _, n := range nodes {
			if n < 0 || n >= 6 || seen[n] {
				t.Fatalf("block %d bad replica set %v", b, nodes)
			}
			seen[n] = true
		}
	}
}

func TestMemOFSValidation(t *testing.T) {
	if _, err := NewMemOFS(0, units.KB); err == nil {
		t.Error("0 servers accepted")
	}
	if _, err := NewMemOFS(4, 0); err == nil {
		t.Error("0 stripe accepted")
	}
}

func TestMemOFSStriping(t *testing.T) {
	s, _ := NewMemOFS(4, units.KB)
	data := make([]byte, 10*units.KB) // 10 stripes over 4 servers
	if err := s.Create("d", data); err != nil {
		t.Fatal(err)
	}
	per := s.perSrv
	var total units.Bytes
	max, min := per[0], per[0]
	for _, b := range per {
		total += b
		if b > max {
			max = b
		}
		if b < min {
			min = b
		}
	}
	if total != 10*units.KB {
		t.Errorf("striped total = %d", total)
	}
	if max-min > units.KB {
		t.Errorf("stripe imbalance: %v", per)
	}
	if err := s.Delete("d"); err != nil {
		t.Fatal(err)
	}
	for i, b := range s.perSrv {
		if b != 0 {
			t.Errorf("server %d holds %d bytes after delete", i, b)
		}
	}
	if err := s.Delete("d"); err == nil {
		t.Error("double delete accepted")
	}
}

func TestMemOFSDuplicate(t *testing.T) {
	s, _ := NewMemOFS(4, units.KB)
	if err := s.Create("d", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("d", []byte("y")); err == nil {
		t.Error("duplicate accepted")
	}
	if _, err := s.Open("missing"); err == nil {
		t.Error("missing open succeeded")
	}
}

// Property: ReadAt over any offset/length reconstructs the stored bytes.
func TestDatasetReadAtProperty(t *testing.T) {
	f := func(data []byte, offRaw uint16, lenRaw uint8) bool {
		if len(data) == 0 {
			return true
		}
		s, err := NewMemOFS(3, 7)
		if err != nil {
			return false
		}
		if err := s.Create("d", data); err != nil {
			return false
		}
		ds, err := s.Open("d")
		if err != nil {
			return false
		}
		off := int64(offRaw) % int64(len(data))
		n := int(lenRaw)%len(data) + 1
		buf := make([]byte, n)
		got, _ := ds.ReadAt(buf, off)
		want := data[off:]
		if len(want) > n {
			want = want[:n]
		}
		return got == len(want) && bytes.Equal(buf[:got], want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDatasetReadAtEdges(t *testing.T) {
	s, _ := NewMemOFS(2, units.KB)
	if err := s.Create("d", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	ds, _ := s.Open("d")
	buf := make([]byte, 2)
	if _, err := ds.ReadAt(buf, -1); err == nil {
		t.Error("negative offset accepted")
	}
	if n, err := ds.ReadAt(buf, 3); n != 0 || err == nil {
		t.Error("read past end should EOF")
	}
	if n, err := ds.ReadAt(buf, 2); n != 1 || err == nil {
		t.Errorf("short read = %d, %v", n, err)
	}
	if ds.BlockSize() != units.KB {
		t.Error("block size")
	}
}

func TestStoreNames(t *testing.T) {
	h, _ := NewMemHDFS(2, units.KB, 2, units.MB)
	o, _ := NewMemOFS(2, units.KB)
	if h.Name() != "mem-hdfs" || o.Name() != "mem-ofs" {
		t.Errorf("store names %q/%q", h.Name(), o.Name())
	}
}

func TestListSorted(t *testing.T) {
	s, _ := NewMemOFS(2, units.KB)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if err := s.Create(n, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	got := s.List()
	if len(got) != 3 || got[0] != "alpha" || got[1] != "mid" || got[2] != "zeta" {
		t.Errorf("List = %v", got)
	}
}
