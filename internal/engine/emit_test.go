package engine

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"hybridmr/internal/corpus"
	"hybridmr/internal/units"
)

// scratchWordcountMapper emits Wordcount's pairs from one scratch buffer
// per line, holding the key and then the value, and overwrites the buffer
// as soon as emit returns. Under the emit contract that is allowed; an
// engine that kept an emitted slice instead of copying it would group
// clobbered bytes.
type scratchWordcountMapper struct{}

func (scratchWordcountMapper) MapLine(line []byte, emit func(k, v []byte)) error {
	var scratch []byte
	for start, end := nextField(line, 0); start < end; start, end = nextField(line, end) {
		scratch = append(append(scratch[:0], line[start:end]...), '1')
		n := end - start
		emit(scratch[:n], scratch[n:])
		for i := range scratch {
			scratch[i] = '#'
		}
	}
	return nil
}

// The engine copies what it keeps of an emitted pair before emit returns:
// a mapper that overwrites its emit buffer straight away gets Wordcount's
// output and counters exactly, across slot counts and sort buffers.
func TestEmitContract(t *testing.T) {
	text, err := corpus.Generate(corpus.DefaultConfig(), 64*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	for _, buffer := range []int{0, 64} {
		for _, slots := range []int{1, 2, 16} {
			run := func(m Mapper) ([]byte, Counters) {
				store := newOFS(t)
				if err := store.Create("in", text); err != nil {
					t.Fatal(err)
				}
				cfg := NewWordcount(store, "in", "out", 4, slots, slots)
				cfg.Mapper = m
				cfg.SortBufferRecords = buffer
				ctr, err := Run(cfg)
				if err != nil {
					t.Fatalf("slots %d buffer %d: %v", slots, buffer, err)
				}
				ctr.MapWall, ctr.ShuffleWall, ctr.ReduceWall = 0, 0, 0
				return readAll(t, store, "out"), ctr
			}
			want, wantCtr := run(WordcountMapper{})
			got, gotCtr := run(scratchWordcountMapper{})
			if !bytes.Equal(got, want) || gotCtr != wantCtr {
				t.Errorf("slots %d buffer %d: counters %+v, output %d bytes; want %+v, %d bytes",
					slots, buffer, gotCtr, len(got), wantCtr, len(want))
			}
		}
	}
}

// WordcountMapper.Map, the string adapter, emits the pairs MapLine emits.
func TestWordcountMapMatchesMapLine(t *testing.T) {
	f := func(line []byte) bool {
		var viaMap, viaLine []string
		m := WordcountMapper{}
		_ = m.Map(line, func(k, v string) { viaMap = append(viaMap, k, v) })
		_ = m.MapLine(line, func(k, v []byte) { viaLine = append(viaLine, string(k), string(v)) })
		return strings.Join(viaMap, "\x00") == strings.Join(viaLine, "\x00")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// sameAsParseInt reports whether parseCount(v) returns what
// strconv.ParseInt(v, 10, 64) returns, the error text included, and
// whether SumReducer and TopKReducer fail on v with the text they failed
// with when they called ParseInt.
func sameAsParseInt(t *testing.T, v string) bool {
	t.Helper()
	got, gotErr := parseCount(v)
	want, wantErr := strconv.ParseInt(v, 10, 64)
	if wantErr == nil {
		if gotErr != nil || got != want {
			t.Errorf("parseCount(%q) = %d, %v; want %d", v, got, gotErr, want)
			return false
		}
		return true
	}
	if gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Errorf("parseCount(%q) = %d, %v; want error %v", v, got, gotErr, wantErr)
		return false
	}
	for _, tc := range []struct {
		r      Reducer
		prefix string
	}{{SumReducer{}, "sum"}, {TopKReducer{}, "topk"}} {
		err := tc.r.Reduce("k", []string{"1", v}, func(string, string) {})
		if want := fmt.Sprintf("engine: %s reducer: %q: %v", tc.prefix, v, wantErr); err == nil || err.Error() != want {
			t.Errorf("%T on %q: %v, want %s", tc.r, v, err, want)
			return false
		}
	}
	return true
}

// The reducers' decimal fast path is strconv.ParseInt, value and error,
// on plain digit strings, signs, padding, the 18/19-digit boundary,
// overflow, and arbitrary strings.
func TestParseCountMatchesParseInt(t *testing.T) {
	for _, v := range []string{
		"", "0", "1", "+1", "-3", "007", "1.5", " 1", "1 ", "1_000", "0x1f",
		"123456789012345678",   // 18 digits: the longest fast-path input
		"999999999999999999",   // 18 digits, all nines
		"1234567890123456789",  // 19 digits: ParseInt's
		"9223372036854775807",  // MaxInt64
		"9223372036854775808",  // MaxInt64 + 1: out of range
		"00000000000000000001", // 20 digits, in range
		"-9223372036854775808",
	} {
		sameAsParseInt(t, v)
	}
	f := func(s string, n int64, u uint64, pad uint8) bool {
		digits := strings.Repeat("0", int(pad%4)) + strconv.FormatUint(u, 10)
		return sameAsParseInt(t, s) && sameAsParseInt(t, strconv.FormatInt(n, 10)) && sameAsParseInt(t, digits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// SumReducer adds what ParseInt parses.
	sum := func(ns []int64) bool {
		var values []string
		var want int64
		for _, n := range ns {
			n %= 1 << 40
			values = append(values, strconv.FormatInt(n, 10))
			want += n
		}
		var got string
		err := SumReducer{}.Reduce("k", values, func(_, v string) { got = v })
		return err == nil && got == strconv.FormatInt(want, 10)
	}
	if err := quick.Check(sum, nil); err != nil {
		t.Error(err)
	}
}
