// Fixture for //simlint:allow directive semantics, exercised with the
// walltime analyzer:
//
//   - a directive with a reason suppresses its line (and only its line);
//   - a reasonless directive suppresses nothing and is itself a diagnostic;
//   - a directive that matches no diagnostic is reported as stale;
//   - a directive naming no analyzer is reported, even though the fixture
//     runs only walltime.
package suppress

import "time"

// A trailing directive with a reason: the wall-clock read is sanctioned.
func sanctionedTrailing() int64 {
	return time.Now().Unix() //simlint:allow walltime fixture: sanctioned measurement with a reason
}

// A directive on the line above works the same way.
func sanctionedAbove() time.Duration {
	//simlint:allow walltime fixture: sanctioned measurement with a reason
	return time.Since(time.Unix(0, 0))
}

// Reasonless: the directive is its own diagnostic and does not suppress.
func reasonless() int64 {
	// want-next "reads the wall clock" "has no reason"
	return time.Now().UnixNano() //simlint:allow walltime
}

// Stale: a reasoned directive pointing at nothing is reported.
func stale() int {
	// want-next "suppresses nothing"
	x := 1 //simlint:allow walltime fixture: stale directive kept to pin the unused check
	return x
}

// Unknown: a directive for an analyzer that does not exist is reported, so
// it cannot outlive the analyzer it once named.
func unknown() int {
	// want-next "names no analyzer"
	y := 2 //simlint:allow nosuchanalyzer fixture: names an analyzer that does not exist
	return y
}
