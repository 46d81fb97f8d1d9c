// Fixture for a package outside the determinism contract: simlint parses it
// for directives without type-checking it (undefinedName does not resolve),
// and reports every directive, since nothing outside the contract can be
// suppressed.
package nonsim

import "time"

func stamp() time.Time {
	return time.Now() //simlint:allow walltime a stale directive: walltime does not run here
}

func missing() int {
	return undefinedName //simlint:allow nosuch names no analyzer
}

//simlint:allow walltime
func reasonless() {}
