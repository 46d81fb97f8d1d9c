// Package units provides byte-size and bandwidth quantities shared by the
// simulator, the workload generator and the execution engine.
//
// Sizes are binary (1 KB = 1024 B) to match Hadoop's block-size conventions;
// the paper speaks of 128 MB blocks and of job inputs from KB to TB, all in
// binary units. Bandwidths are expressed in bytes per (simulated) second.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Bytes is a data size in bytes. It is a plain int64 so arithmetic stays
// cheap inside the simulator's inner loops.
type Bytes int64

// Binary byte-size constants.
const (
	B  Bytes = 1
	KB Bytes = 1 << 10
	MB Bytes = 1 << 20
	GB Bytes = 1 << 30
	TB Bytes = 1 << 40
	PB Bytes = 1 << 50
)

// BytesPerSec is a bandwidth in bytes per second of simulated time.
type BytesPerSec float64

// MBps returns a bandwidth of n binary megabytes per second.
func MBps(n float64) BytesPerSec { return BytesPerSec(n * float64(MB)) }

// GBps returns a bandwidth of n binary gigabytes per second.
func GBps(n float64) BytesPerSec { return BytesPerSec(n * float64(GB)) }

// GiB returns a size of n binary gigabytes, rounding to whole bytes.
// It accepts fractional sizes such as 0.5 for the paper's 0.5 GB inputs.
func GiB(n float64) Bytes { return Bytes(math.Round(n * float64(GB))) }

// GiBf returns the size expressed in (possibly fractional) binary gigabytes.
func (b Bytes) GiBf() float64 { return float64(b) / float64(GB) }

// Scale returns the size multiplied by f, rounded to whole bytes and
// saturated at math.MaxInt64. Scaling a non-negative size by a non-negative
// factor never goes negative.
func (b Bytes) Scale(f float64) Bytes {
	v := math.Round(float64(b) * f)
	if v >= math.MaxInt64 {
		return math.MaxInt64
	}
	return Bytes(v)
}

// SatAdd returns b+c for non-negative sizes, saturated at math.MaxInt64.
func (b Bytes) SatAdd(c Bytes) Bytes {
	if c > math.MaxInt64-b {
		return math.MaxInt64
	}
	return b + c
}

// Blocks returns the number of blocks of the given size needed to hold b,
// i.e. ceil(b/block), and at least 1 for any b > 0. It matches the paper's
// "input data size / block size" count of HDFS blocks (and OFS stripes).
func (b Bytes) Blocks(block Bytes) int {
	if block <= 0 {
		panic("units: non-positive block size")
	}
	if b <= 0 {
		return 0
	}
	n := b / block
	if b%block != 0 {
		n++
	}
	return int(n)
}

// Transfer returns the simulated time needed to move b bytes at bandwidth bw.
// A non-positive bandwidth yields an "infinite" duration (the maximum
// representable), which callers treat as a stall; sizes ≤ 0 take no time.
func Transfer(b Bytes, bw BytesPerSec) time.Duration {
	if b <= 0 {
		return 0
	}
	if bw <= 0 {
		return time.Duration(math.MaxInt64)
	}
	sec := float64(b) / float64(bw)
	d := sec * float64(time.Second)
	if d >= math.MaxInt64 {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(d)
}

// String formats the size with a binary suffix, e.g. "512.0MB" or "30.0GB",
// choosing the largest unit with a mantissa ≥ 1. Sizes below 1 KB print as
// plain bytes.
func (b Bytes) String() string {
	neg := b < 0
	v := float64(b)
	if neg {
		v = -v
	}
	var s string
	switch {
	case v >= float64(PB):
		s = fmt.Sprintf("%.1fPB", v/float64(PB))
	case v >= float64(TB):
		s = fmt.Sprintf("%.1fTB", v/float64(TB))
	case v >= float64(GB):
		s = fmt.Sprintf("%.1fGB", v/float64(GB))
	case v >= float64(MB):
		s = fmt.Sprintf("%.1fMB", v/float64(MB))
	case v >= float64(KB):
		s = fmt.Sprintf("%.1fKB", v/float64(KB))
	default:
		s = fmt.Sprintf("%dB", int64(v))
	}
	if neg {
		return "-" + s
	}
	return s
}

// ParseBytes parses a human-readable size such as "128MB", "0.5 GB", "30gb"
// or "1024" (plain bytes). Units are binary and case-insensitive; a trailing
// "iB" spelling (KiB, MiB, ...) is also accepted.
func ParseBytes(s string) (Bytes, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, fmt.Errorf("units: empty size")
	}
	// Split the numeric prefix from the unit suffix.
	i := 0
	for i < len(t) {
		c := t[i]
		if (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '+' {
			i++
			continue
		}
		break
	}
	numPart := strings.TrimSpace(t[:i])
	unitPart := strings.TrimSpace(t[i:])
	if numPart == "" {
		return 0, fmt.Errorf("units: no numeric value in %q", s)
	}
	v, err := strconv.ParseFloat(numPart, 64)
	if err != nil {
		return 0, fmt.Errorf("units: bad number in %q: %v", s, err)
	}
	if v < 0 {
		return 0, fmt.Errorf("units: negative size %q", s)
	}
	mult, err := unitMultiplier(unitPart)
	if err != nil {
		return 0, fmt.Errorf("units: %v in %q", err, s)
	}
	// Guard the float→int64 conversion (a product ≥ 2^63 would make it
	// implementation-defined rather than saturate) with 2^46 of headroom,
	// so every accepted size also survives a String round trip: the
	// rendering rounds to one decimal of the largest unit, and without the
	// headroom a size within 0.05 PB of 2^63 renders as "8192.0PB", which
	// no longer parses.
	b := math.Round(v * float64(mult))
	if b >= 1<<63-1<<46 {
		return 0, fmt.Errorf("units: size %q overflows", s)
	}
	return Bytes(b), nil
}

func unitMultiplier(u string) (Bytes, error) {
	switch strings.ToUpper(strings.TrimSuffix(strings.TrimSuffix(strings.ToUpper(u), "IB"), "B")) {
	case "":
		if u == "" || strings.EqualFold(u, "B") {
			return B, nil
		}
		return B, nil
	case "K":
		return KB, nil
	case "M":
		return MB, nil
	case "G":
		return GB, nil
	case "T":
		return TB, nil
	case "P":
		return PB, nil
	}
	return 0, fmt.Errorf("unknown unit %q", u)
}

// Ratio is a dimensionless data-size ratio, e.g. the paper's shuffle/input
// ratio (1.6 for Wordcount, 0.4 for Grep, ≈0 for TestDFSIO write).
type Ratio float64

// Apply returns b scaled by the ratio, rounded to whole bytes.
func (r Ratio) Apply(b Bytes) Bytes { return b.Scale(float64(r)) }
