package workload

import (
	"bufio"
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"dilu/internal/sim"
)

// TraceEvent is one recorded request arrival: a virtual timestamp and the
// function it invokes.
type TraceEvent struct {
	At   sim.Time
	Func string
}

// Trace is an external arrival recording replayed against the system —
// the production counterpart of the synthetic generators. Events are
// sorted by (At, Func); per-function subsequences compile down to plain
// []sim.Time slices, replayed through a sim.SliceCursor on the same
// engine stream as generated workloads.
type Trace struct {
	Label  string
	Events []TraceEvent
}

// normalize sorts events and validates function names (the parsers
// validate timestamps row by row).
func (t *Trace) normalize() error {
	for _, e := range t.Events {
		if e.Func == "" {
			return fmt.Errorf("workload: trace %q has an event without a function", t.Label)
		}
	}
	sort.SliceStable(t.Events, func(i, j int) bool {
		if t.Events[i].At != t.Events[j].At {
			return t.Events[i].At < t.Events[j].At
		}
		return t.Events[i].Func < t.Events[j].Func
	})
	return nil
}

// Count returns the number of events.
func (t *Trace) Count() int { return len(t.Events) }

// Duration returns the timestamp of the last event — the natural replay
// horizon.
func (t *Trace) Duration() sim.Duration {
	if len(t.Events) == 0 {
		return 0
	}
	return t.Events[len(t.Events)-1].At
}

// Functions returns the distinct function names of the trace, sorted.
func (t *Trace) Functions() []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range t.Events {
		if !seen[e.Func] {
			seen[e.Func] = true
			out = append(out, e.Func)
		}
	}
	slices.Sort(out)
	return out
}

// Compile extracts the function's arrival times as a fresh, sorted
// []sim.Time — the exact shape sim.Engine.ScheduleSeries consumes.
func (t *Trace) Compile(fn string) []sim.Time {
	var out []sim.Time
	for _, e := range t.Events {
		if e.Func == fn {
			out = append(out, e.At)
		}
	}
	return out
}

// Arrivals returns a replay source for one function of the trace,
// satisfying the same interface as the synthetic generators. The returned
// source ignores the RNG: replay is exact.
func (t *Trace) Arrivals(fn string) Arrivals {
	return Times{Label: t.Label + "/" + fn, T: t.Compile(fn)}
}

// Times is a pre-materialized arrival sequence wrapped as an Arrivals
// source (trace replay, tenant-mix splits). It ignores the RNG. Stream
// reads the prefix inside the horizon in place and never writes T, so
// one Times value can feed engines running in parallel; Generate
// returns a copy of that prefix.
type Times struct {
	Label string
	T     []sim.Time
}

// Name implements Arrivals.
func (ts Times) Name() string { return ts.Label }

// Stream implements Arrivals.
func (ts Times) Stream(_ *sim.RNG, dur sim.Duration) sim.Cursor {
	n := sort.Search(len(ts.T), func(i int) bool { return ts.T[i] >= dur })
	return sim.NewSliceCursor(ts.T[:n])
}

// Generate implements Arrivals.
func (ts Times) Generate(rng *sim.RNG, dur sim.Duration) []sim.Time {
	return drain(ts.Stream(rng, dur))
}

// ---------------------------------------------------------------------------
// Parsing.

// parseSeconds parses the timestamp field of one schedule row (trace,
// churn and fault CSVs) into virtual time; see toTime for what it
// rejects. Errors do not name the row: callers prefix it. The first
// data row of a file may instead be a column header: header reports a
// first-row field with no digits at all ("seconds"), so a malformed
// mid-file timestamp ("0..5") still errors rather than vanishing.
func parseSeconds(field string, firstRow bool) (at sim.Time, header bool, err error) {
	field = strings.TrimSpace(field)
	v, err := strconv.ParseFloat(field, 64)
	if err != nil {
		if firstRow && !strings.ContainsAny(field, "0123456789") {
			return 0, true, nil
		}
		return 0, false, fmt.Errorf("bad timestamp %q", field)
	}
	at, err = toTime(v)
	return at, false, err
}

// toTime converts a timestamp of v seconds to virtual time. It rejects
// what sim.Time (int64 microseconds) cannot hold: NaN, ±Inf, negative
// values, and values at or past 2^63 µs (~292,000 years), which the
// conversion would otherwise wrap to a large negative time.
func toTime(v float64) (sim.Time, error) {
	var why string
	switch {
	case math.IsNaN(v) || math.IsInf(v, 0):
		why = "non-finite"
	case v < 0:
		why = "negative"
	case v*float64(sim.Second) >= math.MaxInt64:
		why = "out-of-range"
	default:
		return sim.FromSeconds(v), nil
	}
	return 0, fmt.Errorf("%s timestamp %q", why, strconv.FormatFloat(v, 'g', -1, 64))
}

// ParseTraceCSV reads the simple CSV trace format:
//
//	# comment lines and blank lines are skipped
//	seconds,function
//	0.125,roberta
//	0.250,bert
//
// A leading "seconds,function"-style header row is skipped when present.
// Timestamps are fractional seconds of virtual time, non-negative, in any
// order (events are sorted on load).
func ParseTraceCSV(label string, r io.Reader) (*Trace, error) {
	tr := &Trace{Label: label}
	sc := bufio.NewScanner(r)
	line, dataRows := 0, 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		sec, fn, ok := strings.Cut(text, ",")
		if !ok {
			return nil, fmt.Errorf("workload: %s:%d: want \"seconds,function\", got %q", label, line, text)
		}
		dataRows++
		at, header, err := parseSeconds(sec, dataRows == 1)
		if err != nil {
			return nil, fmt.Errorf("workload: %s:%d: %v", label, line, err)
		}
		if header {
			continue
		}
		tr.Events = append(tr.Events, TraceEvent{At: at, Func: strings.TrimSpace(fn)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: %s: %v", label, err)
	}
	if err := tr.normalize(); err != nil {
		return nil, err
	}
	return tr, nil
}

// jsonTrace is the JSON trace document shape.
type jsonTrace struct {
	Name   string `json:"name"`
	Events []struct {
		T    float64 `json:"t"`
		Func string  `json:"func"`
	} `json:"events"`
}

// ParseTraceJSON reads the JSON trace format:
//
//	{"name": "prod-slice", "events": [{"t": 0.125, "func": "roberta"}, ...]}
//
// The document name overrides label when present.
func ParseTraceJSON(label string, r io.Reader) (*Trace, error) {
	var doc jsonTrace
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("workload: %s: bad JSON trace: %v", label, err)
	}
	if doc.Name != "" {
		label = doc.Name
	}
	tr := &Trace{Label: label}
	for i, e := range doc.Events {
		at, err := toTime(e.T)
		if err != nil {
			return nil, fmt.Errorf("workload: %s: event %d: %v", label, i, err)
		}
		tr.Events = append(tr.Events, TraceEvent{At: at, Func: e.Func})
	}
	if err := tr.normalize(); err != nil {
		return nil, err
	}
	return tr, nil
}

// LoadTrace reads a trace file, dispatching on extension (.csv or .json).
func LoadTrace(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %v", err)
	}
	defer f.Close()
	label := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	switch ext := strings.ToLower(filepath.Ext(path)); ext {
	case ".csv":
		return ParseTraceCSV(label, f)
	case ".json":
		return ParseTraceJSON(label, f)
	default:
		return nil, fmt.Errorf("workload: %s: unknown trace extension %q (want .csv or .json)", path, ext)
	}
}

// ---------------------------------------------------------------------------
// Committed sample traces.

//go:embed testdata/traces
var sampleTraceFS embed.FS

// SampleTraceNames lists the committed sample traces (base names without
// extension), sorted.
func SampleTraceNames() []string {
	entries, err := fs.ReadDir(sampleTraceFS, "testdata/traces")
	if err != nil {
		panic(err) // embedded directory always present
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		out = append(out, strings.TrimSuffix(name, filepath.Ext(name)))
	}
	slices.Sort(out)
	return out
}

// SampleTrace loads a committed sample trace by base name. The samples
// are embedded, so experiment drivers replay them identically regardless
// of working directory.
func SampleTrace(name string) (*Trace, error) {
	for _, ext := range []string{".csv", ".json"} {
		b, err := sampleTraceFS.ReadFile("testdata/traces/" + name + ext)
		if err != nil {
			continue
		}
		if ext == ".csv" {
			return ParseTraceCSV(name, strings.NewReader(string(b)))
		}
		return ParseTraceJSON(name, strings.NewReader(string(b)))
	}
	return nil, fmt.Errorf("workload: unknown sample trace %q (have %v)", name, SampleTraceNames())
}

// MustSampleTrace is SampleTrace that panics on error.
func MustSampleTrace(name string) *Trace {
	tr, err := SampleTrace(name)
	if err != nil {
		panic(err)
	}
	return tr
}
