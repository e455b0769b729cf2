package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndQuantile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
	xs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.25, 20}, {0.9, 46}, {1, 50}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
	if got := orZero(nil, 0.99); got != 0 {
		t.Errorf("orZero(nil) = %v, want 0", got)
	}
}

// The quartiles must match Python's statistics.quantiles(xs, n=4), the
// rule the benchmark's spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{99, 0, false},
		{100, 90, true},
		{499, 95, true},
		{500, 98, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && float64(c.n)*(100-got)/100 < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = p%v leaves fewer than 10 samples beyond it", c.n, got)
		}
	}
}

func TestModuleOfLeafFrame(t *testing.T) {
	for fn, want := range map[string]string{
		"dilu/internal/sim.(*RNG).Exp":                    "sim",
		"dilu/internal/gpu.EffInv":                        "gpu",
		"dilu/internal/core.(*System).tick.func1":         "core",
		"dilu/internal/workload.Gamma.Generate":           "workload",
		"dilu/internal/simtest.QuotaConservation.func1":   "other",
		"math/rand.(*Rand).Int63":                         "other",
		"math.archExp":                                    "other",
		"runtime.memmove":                                 "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":    "runtime",
		"runtime/pprof.(*profileBuilder).addCPUData":      "other",
		"main.runServing":                                 "other",
		"slices.SortFunc[go.shape.[]main.churnEvent,...]": "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb appends protobuf wire-format fields, for hand-built test profiles.
type pb []byte

func (b pb) varint(x uint64) pb {
	for x >= 0x80 {
		b = append(b, byte(x)|0x80)
		x >>= 7
	}
	return append(b, byte(x))
}

func (b pb) num(field int, v uint64) pb { return b.varint(uint64(field) << 3).varint(v) }

func (b pb) msg(field int, m []byte) pb {
	return append(b.varint(uint64(field)<<3|2).varint(uint64(len(m))), m...)
}

func (b pb) packed(field int, vs ...uint64) pb {
	var m pb
	for _, v := range vs {
		m = m.varint(v)
	}
	return b.msg(field, m)
}

func TestModuleSharesChargeLibraryFramesToTheirCaller(t *testing.T) {
	var p pb
	for _, s := range []string{"", "dilu/internal/gpu.EffInv", "math.archExp", "runtime.memmove", "main.run", "math/rand.(*Rand).Int63"} {
		p = p.msg(6, []byte(s))
	}
	for id := uint64(1); id <= 5; id++ {
		p = p.msg(5, pb(nil).num(1, id).num(2, id))
	}
	line := func(fn uint64) []byte { return pb(nil).num(1, fn).num(2, 1) }
	// Location 1 is math.archExp inlined into gpu.EffInv.
	p = p.msg(4, pb(nil).num(1, 1).msg(4, line(2)).msg(4, line(1)))
	p = p.msg(4, pb(nil).num(1, 2).msg(4, line(3)))
	p = p.msg(4, pb(nil).num(1, 3).msg(4, line(4)))
	p = p.msg(4, pb(nil).num(1, 4).msg(4, line(5)))
	p = p.msg(2, pb(nil).packed(1, 1, 3).packed(2, 3, 30))         // math in gpu → gpu
	p = p.msg(2, pb(nil).packed(1, 2, 1).packed(2, 1, 10))         // runtime leaf
	p = p.msg(2, pb(nil).num(1, 4).num(1, 3).num(2, 1).num(2, 10)) // unpacked; no simulator frame → other

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()
	shares, err := moduleShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for m, want := range map[string]float64{"gpu": 0.6, "runtime": 0.2, "other": 0.2, "core": 0} {
		if !near(shares[m], want) {
			t.Errorf("share of %s = %v, want %v", m, shares[m], want)
		}
	}
	if len(shares) != len(profModules) {
		t.Errorf("got %d modules, want all %d", len(shares), len(profModules))
	}
	if _, err := moduleShares([]byte("not gzip")); err == nil {
		t.Error("garbage profile parsed without error")
	}
}

func TestSelfTimeSubtractsChildrenAndChecks(t *testing.T) {
	p := newProbe(7)
	root := p.begin("rep")
	run := p.begin("core.run")
	s := p.begin("core.slice")
	time.Sleep(2 * time.Millisecond)
	p.end(s)
	p.end(run)
	p.end(root)
	// Charge 1 ms of aggregated checker time inside the slice.
	p.spans[s].covered += time.Millisecond
	p.checkTime, p.checks = time.Millisecond, 4

	rows := map[string]layerRow{}
	for _, r := range p.layers() {
		rows[r.name] = r
	}
	slice := p.spans[s].end - p.spans[s].start
	if got := rows["core.slice"].self; got != slice-time.Millisecond {
		t.Errorf("slice self time %v, want %v", got, slice-time.Millisecond)
	}
	if got, want := rows["core.run"].self, p.spans[run].end-p.spans[run].start-slice; got != want {
		t.Errorf("run self time %v, want %v", got, want)
	}
	if r := rows[checkLayer]; r.calls != 4 || r.self != time.Millisecond {
		t.Errorf("checker row %+v", r)
	}

	var buf bytes.Buffer
	if err := p.writeChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(tr.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3", len(tr.TraceEvents))
	}
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "X" || ev.TID != 7 || ev.Args.Rep != 7 {
			t.Errorf("event %+v: want a complete event on the rep's track", ev)
		}
	}
	if ev := tr.TraceEvents[2]; ev.Name != "core.slice" || ev.Cat != "core" || ev.Args.Parent != 1 {
		t.Errorf("slice event %+v", ev)
	}
}

func TestDigestStableAcrossRepsAndTracing(t *testing.T) {
	for _, w := range catalog {
		_, a, err := w.rep(1, smokeSize, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		_, b, err := w.rep(1, smokeSize, newProbe(1))
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		_, c, err := w.rep(2, smokeSize, nil)
		if err != nil {
			t.Fatalf("%s seed 2: %v", w.name, err)
		}
		if a.digest != b.digest {
			t.Errorf("%s: traced digest %s ≠ untraced %s", w.name, b.digest, a.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 1 and 2 share digest %s", w.name, a.digest)
		}
	}
}

// smokeSize shrinks every workload so the whole smoke test runs in a few
// seconds.
const smokeSize = 0.02

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (e2e, layers []string) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	slices.Sort(e2e)
	slices.Sort(layers)
	return e2e, layers
}

// lastLine parses the result line of an invocation.
func lastLine(t *testing.T, out string) result {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

func TestSmokeEveryWorkload(t *testing.T) {
	e2e, layers := benchmarkNames(t)
	for _, w := range catalog {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			path := filepath.Join(t.TempDir(), "trace.json")
			code := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "0", "--trace", trace, "--trace-out", path},
				&stdout, &stderr, catalog, smokeSize)
			if code != 0 {
				t.Fatalf("%s --trace %s: exit %d\n%s%s", w.name, trace, code, stdout.String(), stderr.String())
			}
			res := lastLine(t, stdout.String())
			attempts := 1 + minTimedReps // warm-up and timed reps
			if trace == "1" {
				attempts++
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != attempts {
				t.Errorf("%s --trace %s: result %+v", w.name, trace, res)
			}
			want := e2e
			if trace == "1" {
				want = layers
				if _, err := os.Stat(path); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
			}
			var got []string
			for name, v := range res.Metrics {
				got = append(got, name)
				if math.IsNaN(v.Value) || v.Unit == "" {
					t.Errorf("%s: metric %s = %+v", w.name, name, v)
				}
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s --trace %s: metrics %v, BENCHMARK.json declares %v", w.name, trace, got, want)
			}
		}
	}
}

func TestFailedOutputCheckExitsNonZero(t *testing.T) {
	calls := 0
	cat := []workloadDef{
		{name: "bad", rep: func(int64, float64, *probe) (repTiming, outcome, error) {
			return repTiming{wall: time.Millisecond}, outcome{digest: "d"}, errors.New("served nothing")
		}},
		{name: "drift", rep: func(int64, float64, *probe) (repTiming, outcome, error) {
			calls++
			return repTiming{wall: time.Millisecond}, outcome{digest: strings.Repeat("x", calls)}, nil
		}},
		{name: "panics", rep: func(int64, float64, *probe) (repTiming, outcome, error) { panic("boom") }},
	}
	for _, w := range cat {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", w.name, "--seed", "1", "--seconds", "0"}, &stdout, &stderr, cat, 1)
		if code == 0 {
			t.Errorf("%s: exit 0 on a failed rep", w.name)
		}
		if res := lastLine(t, stdout.String()); res.Correct || res.Failed != 1 {
			t.Errorf("%s: result %+v, want correct=false failed=1", w.name, res)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr, cat, 1); code == 0 {
		t.Error("unknown workload exited 0")
	}
}
