package simlint

// All returns the full analyzer suite in reporting order. cmd/simlint runs
// exactly this set; the fixture tests cover each member individually.
func All() []*Analyzer {
	return []*Analyzer{
		Walltime,
		Maporder,
		Locksafe,
		Selectorder,
	}
}
