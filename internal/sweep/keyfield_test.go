package sweep

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"hybridmr/internal/mapreduce"
	"hybridmr/internal/units"
)

// leafPaths returns the field-index path of every non-struct field reachable
// from struct type t, nested structs flattened, named by their dotted path.
func leafPaths(t reflect.Type, prefix string, index []int) map[string][]int {
	out := make(map[string][]int)
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		path := append(append([]int(nil), index...), i)
		if f.Type.Kind() == reflect.Struct {
			for name, p := range leafPaths(f.Type, prefix+f.Name+".", path) {
				out[name] = p
			}
			continue
		}
		out[prefix+f.Name] = path
	}
	return out
}

// perturb changes one leaf value in place, whatever its kind.
func perturb(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.25)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "'")
	default:
		t.Fatalf("%s: no perturbation for kind %s; extend perturb", name, v.Kind())
	}
}

// TestKeyForCoversEveryField changes one leaf field at a time of the
// platform's cluster spec (machine model included), the application profile
// and the calibration — found by reflection, so fields added later are
// covered too — and requires each change to change the key. A field the key
// missed would let two different points share one memoized result.
func TestKeyForCoversEveryField(t *testing.T) {
	base := mapreduce.MustArch(mapreduce.UpHDFS, cal())
	job := mapreduce.Job{ID: "j", App: wordcount(), Input: 8 * units.GB}
	want := KeyFor(base, job, 0)
	// KeyFor reads only Name, Spec, FS and Cal, so the variants skip
	// NewPlatform's validation: a perturbed value need not be a valid model.
	variant := func() (*mapreduce.Platform, mapreduce.Job) {
		return &mapreduce.Platform{Name: base.Name, Spec: base.Spec, FS: base.FS, Cal: base.Cal}, job
	}
	if p, j := variant(); KeyFor(p, j, 0) != want {
		t.Fatal("an identical copy of the platform keys differently")
	}

	targets := []struct {
		name  string
		value func(p *mapreduce.Platform, j *mapreduce.Job) reflect.Value
	}{
		{"Spec", func(p *mapreduce.Platform, _ *mapreduce.Job) reflect.Value { return reflect.ValueOf(&p.Spec).Elem() }},
		{"Profile", func(_ *mapreduce.Platform, j *mapreduce.Job) reflect.Value { return reflect.ValueOf(&j.App).Elem() }},
		{"Calibration", func(p *mapreduce.Platform, _ *mapreduce.Job) reflect.Value { return reflect.ValueOf(&p.Cal).Elem() }},
	}
	for _, tg := range targets {
		p, j := variant()
		leaves := leafPaths(tg.value(p, &j).Type(), tg.name+".", nil)
		if len(leaves) == 0 {
			t.Fatalf("%s has no fields", tg.name)
		}
		for _, name := range slices.Sorted(maps.Keys(leaves)) {
			p, j := variant()
			perturb(t, name, tg.value(p, &j).FieldByIndex(leaves[name]))
			if KeyFor(p, j, 0) == want {
				t.Errorf("changing %s leaves the cache key unchanged", name)
			}
		}
	}
}

// TestCacheSeparatesBisection: an up-HDFS platform whose spec differs from a
// cached one only in its bisection factor must get its own result, not the
// cached full-bisection one.
func TestCacheSeparatesBisection(t *testing.T) {
	full := mapreduce.MustArch(mapreduce.UpHDFS, cal())
	spec := full.Spec
	spec.Bisection = 0.05
	cut, err := mapreduce.NewPlatform(full.Name, spec, full.FS, full.Cal)
	if err != nil {
		t.Fatal(err)
	}
	job := mapreduce.Job{ID: "wc", App: wordcount(), Input: 64 * units.GB}
	direct := cut.RunIsolated(job)
	if direct.Exec == full.RunIsolated(job).Exec {
		t.Fatal("bisection does not change the isolated run; the test has lost its point")
	}

	c := NewCache()
	c.RunIsolated(full, job, 0)
	if got := c.RunIsolated(cut, job, 0); got.Exec != direct.Exec || got.Err != direct.Err {
		t.Errorf("cached run at bisection 0.05 = %v (err %v), direct = %v (err %v)", got.Exec, got.Err, direct.Exec, direct.Err)
	}
}
