package figures

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"hybridmr/internal/mapreduce"
	"hybridmr/internal/workload"
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

// TestConfigFPCoversEveryField changes one workload.Config field at a time —
// every scalar, and every leaf of the first Band and the first AppWeight
// (its apps.Profile included), all found by reflection so fields added later
// are covered too — and requires each change to change configFP. A missed
// field would hand one config's memoized trace to another.
func TestConfigFPCoversEveryField(t *testing.T) {
	base := workload.DefaultConfig()
	want := configFP(base)
	// fresh copies base with its own slices, so a perturbation never
	// writes through to base's backing arrays.
	fresh := func() reflect.Value {
		c := base
		c.Bands, c.AppMix = slices.Clone(base.Bands), slices.Clone(base.AppMix)
		return reflect.ValueOf(&c).Elem()
	}
	if configFP(fresh().Interface().(workload.Config)) != want {
		t.Fatal("an identical copy of the config hashes differently")
	}

	cfgType := reflect.TypeOf(base)
	checked := 0
	for i := 0; i < cfgType.NumField(); i++ {
		f := cfgType.Field(i)
		if f.Type.Kind() != reflect.Slice {
			c := fresh()
			perturb(t, f.Name, c.Field(i))
			if configFP(c.Interface().(workload.Config)) == want {
				t.Errorf("changing %s leaves configFP unchanged", f.Name)
			}
			checked++
			continue
		}
		if fresh().Field(i).Len() == 0 {
			t.Fatalf("default config has no %s to perturb", f.Name)
		}
		leaves := leafPaths(f.Type.Elem(), f.Name+"[0].", nil)
		for _, name := range slices.Sorted(maps.Keys(leaves)) {
			c := fresh()
			perturb(t, name, c.Field(i).Index(0).FieldByIndex(leaves[name]))
			if configFP(c.Interface().(workload.Config)) == want {
				t.Errorf("changing %s leaves configFP unchanged", name)
			}
			checked++
		}
		c := fresh()
		c.Field(i).SetLen(c.Field(i).Len() - 1)
		if configFP(c.Interface().(workload.Config)) == want {
			t.Errorf("dropping the last %s element leaves configFP unchanged", f.Name)
		}
	}
	if checked == 0 {
		t.Fatal("no fields checked")
	}
}

// TestSharedArchesKeysByCalibration: equal calibrations share one bundle,
// and a calibration differing in one field gets its own.
func TestSharedArchesKeysByCalibration(t *testing.T) {
	cal := mapreduce.DefaultCalibration()
	a, err := SharedArches(cal)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := SharedArches(mapreduce.DefaultCalibration()); err != nil || b != a {
		t.Errorf("equal calibration built a second bundle (err %v)", err)
	}
	cal.SpillPasses++
	c, err := SharedArches(cal)
	if err != nil {
		t.Fatal(err)
	}
	if c == a || c.THadoop.Cal != cal {
		t.Error("re-tuned calibration shares the default bundle")
	}
}
