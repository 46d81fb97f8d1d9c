// Package corpus generates deterministic synthetic text for the execution
// engine's Wordcount and Grep jobs. The paper generated its inputs with
// BigDataBench from the Wikipedia dataset (§III-A); what those applications
// actually depend on is a token stream with a realistic (Zipfian) word
// frequency skew, which this generator reproduces without the dataset.
package corpus

import (
	"fmt"
	"strconv"

	"hybridmr/internal/stats"
	"hybridmr/internal/units"
)

// Config parameterizes the generator.
type Config struct {
	// Vocabulary is the number of distinct words.
	Vocabulary int
	// ZipfExponent skews word frequencies (≈1 matches natural text).
	ZipfExponent float64
	// WordsPerLine is the mean line length in words.
	WordsPerLine int
	// Seed makes the corpus reproducible.
	Seed int64
}

// DefaultConfig returns a natural-text-like configuration.
func DefaultConfig() Config {
	return Config{Vocabulary: 5000, ZipfExponent: 1.05, WordsPerLine: 12, Seed: 1}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Vocabulary < 1:
		return fmt.Errorf("corpus: vocabulary %d", c.Vocabulary)
	case c.ZipfExponent < 0:
		return fmt.Errorf("corpus: negative Zipf exponent")
	case c.WordsPerLine < 1:
		return fmt.Errorf("corpus: words per line %d", c.WordsPerLine)
	}
	return nil
}

// appendWord appends the rank-th vocabulary word to dst: "w" and the rank
// zero-padded to six digits, as fmt's "w%06d" formats it for rank ≥ 1.
func appendWord(dst []byte, rank int) []byte {
	dst = append(dst, 'w')
	for pad := 100000; pad > rank && pad > 1; pad /= 10 {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, int64(rank), 10)
}

// Generate produces at least `size` bytes of newline-terminated text.
func Generate(cfg Config, size units.Bytes) ([]byte, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if size <= 0 {
		return nil, fmt.Errorf("corpus: non-positive size %d", size)
	}
	rng := stats.NewRNG(cfg.Seed)
	zipf := stats.NewZipfTable(cfg.Vocabulary, cfg.ZipfExponent)
	buf := make([]byte, 0, int(size)+64)
	for len(buf) < int(size) {
		words := 1 + rng.Intn(2*cfg.WordsPerLine)
		for w := 0; w < words; w++ {
			if w > 0 {
				buf = append(buf, ' ')
			}
			buf = appendWord(buf, zipf.Sample(rng))
		}
		buf = append(buf, '\n')
	}
	return buf, nil
}
