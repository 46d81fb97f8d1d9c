package units

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestConstants(t *testing.T) {
	if KB != 1024 || MB != 1024*KB || GB != 1024*MB || TB != 1024*GB || PB != 1024*TB {
		t.Fatalf("binary constants wrong: KB=%d MB=%d GB=%d TB=%d PB=%d", KB, MB, GB, TB, PB)
	}
}

func TestGiB(t *testing.T) {
	if got := GiB(0.5); got != 512*MB {
		t.Errorf("GiB(0.5) = %d, want %d", got, 512*MB)
	}
	if got := GiB(448); got != 448*GB {
		t.Errorf("GiB(448) = %d, want %d", got, 448*GB)
	}
}

func TestBlocks(t *testing.T) {
	tests := []struct {
		size  Bytes
		block Bytes
		want  int
	}{
		{0, 128 * MB, 0},
		{-5, 128 * MB, 0},
		{1, 128 * MB, 1},
		{128 * MB, 128 * MB, 1},
		{128*MB + 1, 128 * MB, 2},
		{32 * GB, 128 * MB, 256},
		{448 * GB, 128 * MB, 3584},
		{512 * MB, 128 * MB, 4},
		// Rounding up must not overflow near the top of the range.
		{math.MaxInt64, 128 * MB, 1 << 36},
		{math.MaxInt64, math.MaxInt64, 1},
		{math.MaxInt64 - 1, math.MaxInt64, 1},
	}
	for _, tt := range tests {
		if got := tt.size.Blocks(tt.block); got != tt.want {
			t.Errorf("(%d).Blocks(%d) = %d, want %d", tt.size, tt.block, got, tt.want)
		}
	}
}

func TestBlocksPanicsOnBadBlock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Blocks(0) did not panic")
		}
	}()
	Bytes(1).Blocks(0)
}

func TestTransfer(t *testing.T) {
	if got := Transfer(100*MB, MBps(100)); got != time.Second {
		t.Errorf("Transfer(100MB, 100MB/s) = %v, want 1s", got)
	}
	if got := Transfer(0, MBps(100)); got != 0 {
		t.Errorf("Transfer(0) = %v, want 0", got)
	}
	if got := Transfer(-GB, MBps(100)); got != 0 {
		t.Errorf("Transfer(-1GB) = %v, want 0", got)
	}
	if got := Transfer(GB, 0); got != time.Duration(math.MaxInt64) {
		t.Errorf("Transfer at zero bandwidth = %v, want max duration", got)
	}
	if got := Transfer(GB, GBps(2)); got != 500*time.Millisecond {
		t.Errorf("Transfer(1GB, 2GB/s) = %v, want 500ms", got)
	}
}

func TestString(t *testing.T) {
	tests := []struct {
		b    Bytes
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{KB, "1.0KB"},
		{512 * MB, "512.0MB"},
		{30 * GB, "30.0GB"},
		{Bytes(1.5 * float64(TB)), "1.5TB"},
		{-2 * GB, "-2.0GB"},
		{3 * PB, "3.0PB"},
	}
	for _, tt := range tests {
		if got := tt.b.String(); got != tt.want {
			t.Errorf("(%d).String() = %q, want %q", int64(tt.b), got, tt.want)
		}
	}
}

func TestParseBytes(t *testing.T) {
	tests := []struct {
		in   string
		want Bytes
	}{
		{"128MB", 128 * MB},
		{"0.5 GB", 512 * MB},
		{"30gb", 30 * GB},
		{"1024", 1024},
		{"1KiB", KB},
		{"2TiB", 2 * TB},
		{"7B", 7},
		{"1.5MB", Bytes(1.5 * float64(MB))},
		{" 10 kb ", 10 * KB},
		{"1PB", PB},
	}
	for _, tt := range tests {
		got, err := ParseBytes(tt.in)
		if err != nil {
			t.Errorf("ParseBytes(%q) error: %v", tt.in, err)
			continue
		}
		if got != tt.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestParseBytesErrors(t *testing.T) {
	for _, in := range []string{
		"", "GB", "12XB", "1.2.3MB", "--4KB",
		"-3GB",                 // sizes are magnitudes: negatives are rejected
		"-0.1KB",               //
		"9999999999999TB",      // would overflow int64 bytes
		"9223372036854775807",  // max int64: its float64 rounding is 2^63
		"9223372036854775296B", // just under 2^63 but inside the round-trip headroom
	} {
		if _, err := ParseBytes(in); err == nil {
			t.Errorf("ParseBytes(%q) succeeded, want error", in)
		}
	}
}

// Round-tripping String through ParseBytes preserves the size to within the
// 0.1-unit precision the formatter keeps.
func TestStringParseRoundTrip(t *testing.T) {
	f := func(raw int64) bool {
		b := Bytes(raw % int64(4*PB))
		if b < 0 {
			b = -b
		}
		parsed, err := ParseBytes(b.String())
		if err != nil {
			return false
		}
		// String keeps one decimal of the chosen unit, so allow that slack.
		unit := Bytes(1)
		switch {
		case b >= PB:
			unit = PB
		case b >= TB:
			unit = TB
		case b >= GB:
			unit = GB
		case b >= MB:
			unit = MB
		case b >= KB:
			unit = KB
		}
		diff := parsed - b
		if diff < 0 {
			diff = -diff
		}
		return diff <= unit/10+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Blocks is the exact ceiling division for positive inputs.
func TestBlocksProperty(t *testing.T) {
	f := func(raw int64, blockRaw int64) bool {
		size := Bytes(raw % int64(10*TB))
		if size < 0 {
			size = -size
		}
		block := Bytes(blockRaw%int64(GB)) + 1
		if block < 0 {
			block = -block + 1
		}
		n := size.Blocks(block)
		if size == 0 {
			return n == 0
		}
		return Bytes(n)*block >= size && Bytes(n-1)*block < size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRatioApply(t *testing.T) {
	if got := Ratio(1.6).Apply(10 * GB); got != 16*GB {
		t.Errorf("Ratio(1.6).Apply(10GB) = %v, want 16GB", got)
	}
	if got := Ratio(0).Apply(10 * GB); got != 0 {
		t.Errorf("Ratio(0).Apply = %v, want 0", got)
	}
	if got := Ratio(0.4).Apply(10 * GB); got != 4*GB {
		t.Errorf("Ratio(0.4).Apply(10GB) = %v, want 4GB", got)
	}
}

func TestScale(t *testing.T) {
	if got := (10 * GB).Scale(0.2); got != 2*GB {
		t.Errorf("Scale(0.2) = %v, want 2GB", got)
	}
	if got := Bytes(0).Scale(5); got != 0 {
		t.Errorf("Scale of zero = %v, want 0", got)
	}
	// A product past the int64 range saturates instead of wrapping negative.
	for _, tc := range []struct {
		b Bytes
		f float64
	}{{math.MaxInt64, 1}, {math.MaxInt64, 2}, {TB, 1e10}} {
		if got := tc.b.Scale(tc.f); got != math.MaxInt64 {
			t.Errorf("(%d).Scale(%g) = %d, want MaxInt64", tc.b, tc.f, got)
		}
	}
}

func TestSatAdd(t *testing.T) {
	for _, tc := range []struct{ b, c, want Bytes }{
		{GB, 2 * GB, 3 * GB},
		{0, 0, 0},
		{math.MaxInt64 - 1, 1, math.MaxInt64},
		{math.MaxInt64, 1, math.MaxInt64},
		{math.MaxInt64, math.MaxInt64, math.MaxInt64},
	} {
		if got := tc.b.SatAdd(tc.c); got != tc.want {
			t.Errorf("(%d).SatAdd(%d) = %d, want %d", tc.b, tc.c, got, tc.want)
		}
	}
}

func TestFloatHelpers(t *testing.T) {
	if (2 * GB).GiBf() != 2.0 {
		t.Error("GiBf wrong")
	}
}
