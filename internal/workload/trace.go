package workload

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"

	"hybridmr/internal/apps"
	"hybridmr/internal/units"
)

// traceRecord is the serialized form of one job.
type traceRecord struct {
	ID           string `json:"id"`
	App          string `json:"app"`
	InputBytes   int64  `json:"input_bytes"`
	NominalBytes int64  `json:"nominal_bytes"`
	SubmitMS     int64  `json:"submit_ms"`
	RatioKnown   bool   `json:"ratio_known"`
	MapTasks     int    `json:"map_tasks,omitempty"`
}

func toRecord(j Job) traceRecord {
	return traceRecord{
		ID:           j.ID,
		App:          j.App.Name,
		InputBytes:   int64(j.Input),
		NominalBytes: int64(j.Nominal),
		SubmitMS:     j.Submit.Milliseconds(),
		RatioKnown:   j.RatioKnown,
		MapTasks:     j.MapTasks,
	}
}

// maxSubmitMS is the largest submit time, in milliseconds, a time.Duration
// holds (about 292 years); a larger one would wrap negative.
const maxSubmitMS = math.MaxInt64 / int64(time.Millisecond)

func fromRecord(r traceRecord) (Job, error) {
	prof, err := apps.ByName(r.App)
	if err != nil {
		return Job{}, fmt.Errorf("workload: job %s: %w", r.ID, err)
	}
	if r.InputBytes <= 0 {
		return Job{}, fmt.Errorf("workload: job %s: input %d", r.ID, r.InputBytes)
	}
	if r.SubmitMS < 0 {
		return Job{}, fmt.Errorf("workload: job %s: negative submit time", r.ID)
	}
	if r.SubmitMS > maxSubmitMS {
		return Job{}, fmt.Errorf("workload: job %s: submit time %d ms overflows a time.Duration", r.ID, r.SubmitMS)
	}
	if r.NominalBytes < 0 {
		return Job{}, fmt.Errorf("workload: job %s: negative nominal size", r.ID)
	}
	if r.MapTasks < 0 {
		return Job{}, fmt.Errorf("workload: job %s: negative map task count", r.ID)
	}
	return Job{
		ID:         r.ID,
		App:        prof,
		Input:      units.Bytes(r.InputBytes),
		Nominal:    units.Bytes(r.NominalBytes),
		Submit:     time.Duration(r.SubmitMS) * time.Millisecond,
		RatioKnown: r.RatioKnown,
		MapTasks:   r.MapTasks,
	}, nil
}

// WriteJSON serializes the trace as a JSON array.
func WriteJSON(w io.Writer, jobs []Job) error {
	recs := make([]traceRecord, len(jobs))
	for i, j := range jobs {
		recs[i] = toRecord(j)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}

// ReadJSON parses a JSON trace and returns the jobs sorted by submit time.
func ReadJSON(r io.Reader) ([]Job, error) {
	var recs []traceRecord
	if err := json.NewDecoder(r).Decode(&recs); err != nil {
		return nil, fmt.Errorf("workload: decoding JSON trace: %w", err)
	}
	return fromRecords(recs)
}

// csvHeader is the column layout of the CSV trace format.
var csvHeader = []string{"id", "app", "input_bytes", "nominal_bytes", "submit_ms", "ratio_known", "map_tasks"}

// WriteCSV serializes the trace as CSV with a header row.
func WriteCSV(w io.Writer, jobs []Job) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, j := range jobs {
		r := toRecord(j)
		row := []string{
			r.ID, r.App,
			strconv.FormatInt(r.InputBytes, 10),
			strconv.FormatInt(r.NominalBytes, 10),
			strconv.FormatInt(r.SubmitMS, 10),
			strconv.FormatBool(r.RatioKnown),
			strconv.Itoa(r.MapTasks),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a CSV trace (as written by WriteCSV) and returns the jobs
// sorted by submit time.
func ReadCSV(r io.Reader) ([]Job, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("workload: reading CSV trace: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("workload: empty CSV trace")
	}
	if fmt.Sprint(rows[0]) != fmt.Sprint(csvHeader) {
		return nil, fmt.Errorf("workload: unexpected CSV header %v", rows[0])
	}
	recs := make([]traceRecord, 0, len(rows)-1)
	for i, row := range rows[1:] {
		if len(row) != len(csvHeader) {
			return nil, fmt.Errorf("workload: row %d has %d columns", i+2, len(row))
		}
		input, err := strconv.ParseInt(row[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: row %d input: %w", i+2, err)
		}
		nominal, err := strconv.ParseInt(row[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: row %d nominal: %w", i+2, err)
		}
		submit, err := strconv.ParseInt(row[4], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: row %d submit: %w", i+2, err)
		}
		known, err := strconv.ParseBool(row[5])
		if err != nil {
			return nil, fmt.Errorf("workload: row %d ratio_known: %w", i+2, err)
		}
		tasks, err := strconv.Atoi(row[6])
		if err != nil {
			return nil, fmt.Errorf("workload: row %d map_tasks: %w", i+2, err)
		}
		recs = append(recs, traceRecord{
			ID: row[0], App: row[1], InputBytes: input, NominalBytes: nominal,
			SubmitMS: submit, RatioKnown: known, MapTasks: tasks,
		})
	}
	return fromRecords(recs)
}

func fromRecords(recs []traceRecord) ([]Job, error) {
	jobs := make([]Job, 0, len(recs))
	seen := make(map[string]bool, len(recs))
	for _, r := range recs {
		j, err := fromRecord(r)
		if err != nil {
			return nil, err
		}
		if seen[j.ID] {
			return nil, fmt.Errorf("workload: duplicate job id %s", j.ID)
		}
		seen[j.ID] = true
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(i, k int) bool {
		if jobs[i].Submit != jobs[k].Submit {
			return jobs[i].Submit < jobs[k].Submit
		}
		return jobs[i].ID < jobs[k].ID
	})
	return jobs, nil
}
