package corpus

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"hybridmr/internal/units"
)

func TestGenerateBasics(t *testing.T) {
	data, err := Generate(DefaultConfig(), 32*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	if units.Bytes(len(data)) < 32*units.KB {
		t.Errorf("generated %d bytes, want ≥ %d", len(data), 32*units.KB)
	}
	if data[len(data)-1] != '\n' {
		t.Error("corpus must end with a newline")
	}
	for _, line := range bytes.Split(bytes.TrimRight(data, "\n"), []byte{'\n'}) {
		for _, w := range bytes.Fields(line) {
			if !bytes.HasPrefix(w, []byte("w")) {
				t.Fatalf("unexpected token %q", w)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(DefaultConfig(), 8*units.KB)
	b, _ := Generate(DefaultConfig(), 8*units.KB)
	if !bytes.Equal(a, b) {
		t.Error("same seed produced different corpora")
	}
	cfg := DefaultConfig()
	cfg.Seed = 99
	c, _ := Generate(cfg, 8*units.KB)
	if bytes.Equal(a, c) {
		t.Error("different seeds produced identical corpora")
	}
}

// Zipf skew: the most frequent word appears far more often than the median.
func TestGenerateSkew(t *testing.T) {
	data, _ := Generate(DefaultConfig(), 256*units.KB)
	counts := map[string]int{}
	for _, w := range strings.Fields(string(data)) {
		counts[w]++
	}
	top := counts[word(1)]
	mid := counts[word(500)]
	if top == 0 {
		t.Fatal("rank-1 word never appeared")
	}
	if mid*10 > top {
		t.Errorf("insufficient skew: top=%d rank-500=%d", top, mid)
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(DefaultConfig(), 0); err == nil {
		t.Error("size 0 accepted")
	}
	bad := DefaultConfig()
	bad.Vocabulary = 0
	if _, err := Generate(bad, units.KB); err == nil {
		t.Error("empty vocabulary accepted")
	}
	bad = DefaultConfig()
	bad.WordsPerLine = 0
	if _, err := Generate(bad, units.KB); err == nil {
		t.Error("0 words per line accepted")
	}
	bad = DefaultConfig()
	bad.ZipfExponent = -1
	if _, err := Generate(bad, units.KB); err == nil {
		t.Error("negative exponent accepted")
	}
}

// word returns the rank-th vocabulary word (rank ≥ 1), e.g. "w000017".
func word(rank int) string { return string(appendWord(nil, rank)) }

func TestWord(t *testing.T) {
	if word(17) != "w000017" {
		t.Errorf("word(17) = %q", word(17))
	}
	// appendWord formats as "w%06d" does, across every padding width and
	// past six digits.
	for _, rank := range []int{0, 1, 9, 10, 99, 100, 999, 1000, 5000, 99999, 100000, 999999, 1000000, 12345678} {
		if got, want := word(rank), fmt.Sprintf("w%06d", rank); got != want {
			t.Errorf("word(%d) = %q, want %q", rank, got, want)
		}
	}
}

// The corpus bytes for a fixed configuration are pinned: the engine's
// pinned counters and the benchmark's recorded digests depend on them.
func TestGeneratePinned(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 2009
	data, err := Generate(cfg, 256*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(data)
	if len(data) != 262168 || h.Sum64() != 0x36cffd1fdbb00418 {
		t.Errorf("corpus: %d bytes, digest %#x; want 262168, 0x36cffd1fdbb00418", len(data), h.Sum64())
	}
}
