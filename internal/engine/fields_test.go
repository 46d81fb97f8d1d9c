package engine

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"
)

// fieldsOf collects what nextField yields over s.
func fieldsOf(s []byte) [][]byte {
	var out [][]byte
	for start, end := nextField(s, 0); start < end; start, end = nextField(s, end) {
		out = append(out, s[start:end])
	}
	return out
}

func sameFields(s []byte) bool {
	return slices.EqualFunc(fieldsOf(s), bytes.Fields(s), bytes.Equal)
}

// Property: nextField splits exactly as bytes.Fields does, on random bytes
// and on random strings built from ASCII and Unicode spaces, letters,
// multi-byte runes and invalid or truncated UTF-8.
func TestNextFieldMatchesBytesFields(t *testing.T) {
	if err := quick.Check(sameFields, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	pieces := []string{
		" ", "\t", "\n", "\v", "\f", "\r", "a", "w000017", "\x00",
		"\u0085", "\u00a0", "\u1680", "\u2000", "\u2028", "\u2029", "\u3000", "\ufeff",
		"\u00e9", "\u4e16", "\U0001f600",
		"\xff", "\x80", "\xc2", "\xe2\x80", "\xed\xa0\x80", "\xf4\x90\x80\x80",
	}
	built := func(idx []uint8) bool {
		var s []byte
		for _, i := range idx {
			s = append(s, pieces[int(i)%len(pieces)]...)
		}
		return sameFields(s)
	}
	if err := quick.Check(built, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// The named cases, pinned rather than left to chance.
	for _, s := range []string{
		"",
		" ",
		" \t\r\n\v\f ",
		"\u0085\u00a0\u2028\u3000",
		"a\u0085b\u00a0c\u2028d\u3000e",
		"\u3000lead and trail\u3000",
		"bad\xffbyte \xc2 trunc\xe2\x80 x\xed\xa0\x80", // invalid UTF-8 is not space
		"w000001 w000002\n",                            // corpus shape
	} {
		if !sameFields([]byte(s)) {
			t.Errorf("%q: nextField gives %q, bytes.Fields %q", s, fieldsOf([]byte(s)), bytes.Fields([]byte(s)))
		}
	}
}
