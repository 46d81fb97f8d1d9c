package engine

import (
	"unicode"
	"unicode/utf8"
)

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// runeAt reports whether the rune starting at s[i] is white space, and its
// width, for s[i] ≥ utf8.RuneSelf; nextField looks ASCII bytes up in
// asciiSpace itself. An invalid byte is a one-byte RuneError, which is not
// space.
func runeAt(s []byte, i int) (space bool, width int) {
	r, width := utf8.DecodeRune(s[i:])
	return unicode.IsSpace(r), width
}

// nextField returns the bounds of the first field of s that starts at or
// after i, where fields are what bytes.Fields splits s into: maximal runs
// of runes that are not unicode.IsSpace. start == end means no field is
// left. Unlike bytes.Fields it allocates nothing.
func nextField(s []byte, i int) (start, end int) {
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				break
			}
			i++
			continue
		}
		space, w := runeAt(s, i)
		if !space {
			break
		}
		i += w
	}
	start = i
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				break
			}
			i++
			continue
		}
		space, w := runeAt(s, i)
		if space {
			break
		}
		i += w
	}
	return start, i
}
