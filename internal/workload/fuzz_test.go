package workload

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dilu/internal/sim"
)

// Fuzz targets for the external-input parsers. Whatever the bytes, a
// parser must not panic, and whenever it accepts a file the schedule it
// returns must be replayable: sorted by time, no negative time, and
// every slow factor finite and ≥ 1.

// addSeedFiles seeds f with every committed sample trace of the given
// extension.
func addSeedFiles(f *testing.F, ext string) {
	paths, err := filepath.Glob(filepath.Join("testdata", "traces", "*"+ext))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
}

// checkTimes fails unless times are non-negative and non-decreasing.
func checkTimes(t *testing.T, in string, times []sim.Time) {
	t.Helper()
	for i, at := range times {
		if at < 0 {
			t.Fatalf("event %d at negative time %v accepted from %q", i, at, in)
		}
		if i > 0 && at < times[i-1] {
			t.Fatalf("event %d at %v precedes event %d at %v (input %q)", i, at, i-1, times[i-1], in)
		}
	}
}

func traceTimes(tr *Trace) []sim.Time {
	out := make([]sim.Time, len(tr.Events))
	for i, e := range tr.Events {
		out[i] = e.At
	}
	return out
}

func FuzzParseTraceCSV(f *testing.F) {
	addSeedFiles(f, ".csv")
	for _, s := range []string{
		"seconds,function\n0.5,a\n0.25,b\n",
		"0.5,alpha\nNaN,beta\n",
		"-Inf,alpha\n",
		"1e300,alpha\n",
		"0.5,alpha\n0..7,beta\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ParseTraceCSV("fuzz", strings.NewReader(in))
		if err != nil {
			return
		}
		checkTimes(t, in, traceTimes(tr))
	})
}

func FuzzParseTraceJSON(f *testing.F) {
	addSeedFiles(f, ".json")
	for _, s := range []string{
		`{"events": [{"t": 0.5, "func": "a"}, {"t": 1e300, "func": "b"}]}`,
		`{"events": [{"t": -0.5, "func": "a"}]}`,
		`{"name": "x", "events": [{"t": 2, "func": "b"}, {"t": 1, "func": "a"}]}`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ParseTraceJSON("fuzz", strings.NewReader(in))
		if err != nil {
			return
		}
		checkTimes(t, in, traceTimes(tr))
	})
}

func FuzzParseChurnCSV(f *testing.F) {
	for _, s := range []string{
		"# incident\nseconds,action,node\n40,join,2\n5,fail,2\n10,drain,1\n",
		"NaN,fail,0\n",
		"10,fail,1\nInf,join,1\n",
		"1e300,drain,0\n",
		"10,fail,0\n20,fail,1,*\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		evs, err := ParseChurnCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		times := make([]sim.Time, len(evs))
		for i, e := range evs {
			times[i] = e.At
		}
		checkTimes(t, in, times)
	})
}

func FuzzParseFaultCSV(f *testing.F) {
	for _, s := range []string{
		"# gray failure\nseconds,action,node,gpu,factor\n30,slow,1,0,4\n90,slow,1,0,1\n10,error,0,*\n",
		"Inf,error,0,*\n",
		"1,slow,0,0,NaN\n",
		"1,slow,0,0,Inf\n",
		"9.3e12,error,0,0\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		evs, err := ParseFaultCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		times := make([]sim.Time, len(evs))
		for i, e := range evs {
			times[i] = e.At
			if e.Kind == FaultSlow && (math.IsNaN(e.Factor) || math.IsInf(e.Factor, 0) || e.Factor < 1) {
				t.Fatalf("event %d: slow factor %v accepted from %q", i, e.Factor, in)
			}
		}
		checkTimes(t, in, times)
	})
}
