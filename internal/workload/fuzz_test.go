package workload

import (
	"bytes"
	"reflect"
	"testing"
)

// The trace readers take user files (hybridsim -trace), so they are the last
// untrusted inputs. Both fuzz targets defend the same invariants beyond
// "never panic":
//
//   - every accepted job has a positive input and a non-negative submit time
//     (a wrapped negative arrival would panic the simulated clock later);
//   - IDs are unique, and the jobs come back in arrival order (submit time,
//     then ID), which the replay entry points rely on to skip a sort;
//   - writing an accepted trace back out and re-reading it yields the same
//     jobs, so every accepted trace survives a save.
//
// The committed corpora under testdata/fuzz add the edge cases: a submit
// time that overflows a time.Duration, the largest one that does not, ties
// broken by ID, and IDs that need escaping or quoting.

// checkTrace asserts the accepted-trace invariants and the round trip through
// write and read.
func checkTrace(t *testing.T, jobs []Job, write func(*bytes.Buffer, []Job) error, read func(*bytes.Buffer) ([]Job, error)) {
	t.Helper()
	seen := make(map[string]bool, len(jobs))
	for i, j := range jobs {
		if j.Input <= 0 {
			t.Fatalf("job %q accepted with input %d", j.ID, j.Input)
		}
		if j.Submit < 0 {
			t.Fatalf("job %q accepted with submit time %v", j.ID, j.Submit)
		}
		if seen[j.ID] {
			t.Fatalf("duplicate job id %q accepted", j.ID)
		}
		seen[j.ID] = true
		if i > 0 {
			prev := jobs[i-1]
			if prev.Submit > j.Submit || prev.Submit == j.Submit && prev.ID > j.ID {
				t.Fatalf("jobs %q and %q out of arrival order", prev.ID, j.ID)
			}
		}
	}
	var buf bytes.Buffer
	if err := write(&buf, jobs); err != nil {
		t.Fatalf("writing an accepted trace: %v", err)
	}
	again, err := read(&buf)
	if err != nil {
		t.Fatalf("re-reading a written trace: %v", err)
	}
	if len(jobs) == 0 && len(again) == 0 {
		return
	}
	if !reflect.DeepEqual(again, jobs) {
		t.Fatalf("round trip changed the trace:\n%+v\n%+v", jobs, again)
	}
}

func FuzzReadJSON(f *testing.F) {
	for _, seed := range []string{
		`[]`,
		`null`,
		`[{"id":"a","app":"grep","input_bytes":1000,"submit_ms":5,"ratio_known":true}]`,
		`[{"id":"b","app":"sort","input_bytes":1,"nominal_bytes":64,"submit_ms":0,"map_tasks":3},{"id":"a","app":"wordcount","input_bytes":2,"submit_ms":0}]`,
		`[{"id":"a","app":"grep","input_bytes":1000,"submit_ms":-1}]`,
		`[{"id":"a","app":"grep","input_bytes":0}]`,
		`[{"id":"a","app":"grep","input_bytes":1},{"id":"a","app":"grep","input_bytes":1}]`,
		`[{"id":"a","app":"nope","input_bytes":1}]`,
		`{not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkTrace(t, jobs,
			func(b *bytes.Buffer, js []Job) error { return WriteJSON(b, js) },
			func(b *bytes.Buffer) ([]Job, error) { return ReadJSON(b) })
	})
}

func FuzzReadCSV(f *testing.F) {
	const header = "id,app,input_bytes,nominal_bytes,submit_ms,ratio_known,map_tasks\n"
	for _, seed := range []string{
		header,
		header + "a,grep,1000,0,5,true,0\n",
		header + "b,sort,1,64,0,false,3\na,wordcount,2,0,0,1,0\n",
		header + "a,grep,1000,0,-1,false,0\n",
		header + "a,grep,0,0,0,false,0\n",
		header + "a,grep,1,0,0,false,0\na,grep,1,0,0,false,0\n",
		header + "\"a,\"\"b\"\"\",grep,1,0,0,false,0\n",
		header + "a,grep,1,0,0\n",
		"id,app\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkTrace(t, jobs,
			func(b *bytes.Buffer, js []Job) error { return WriteCSV(b, js) },
			func(b *bytes.Buffer) ([]Job, error) { return ReadCSV(b) })
	})
}
