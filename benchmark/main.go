// Command benchmark measures the Dilu simulator's host time and memory
// on four workloads taken from the paper's evaluation, end to end and
// layer by layer. It builds every scenario from the simulator's public
// API and times the calls it makes into each layer from outside.
//
//	go run . --workload paper_e2e --seed 1 --seconds 10 --trace 0
//
// One invocation runs one workload: untimed warm-up reps for a tenth of
// --seconds (at least one), then timed reps until --seconds have passed,
// and with --trace 1 one more rep with
// spans, invariant checkers and a CPU profile. The last line of standard
// output is a JSON object with the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). Any failed output check, panic or digest
// mismatch makes the exit code non-zero. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, catalog, 1))
}

// minTimedReps is the fewest timed reps a run reports medians over, even
// when they outlast --seconds.
const minTimedReps = 2

// warmupShare is the share of --seconds spent on untimed warm-up reps:
// the first reps of a process run slower while its heap grows to size.
const warmupShare = 0.1

// metric is one reported value.
type metric struct {
	name  string
	unit  string
	value float64
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// timedRep is one timed rep's measurements.
type timedRep struct {
	repTiming
	allocMiB float64
	rssMiB   float64 // the rep's peak RSS
}

// runner holds one invocation's state: reps attempted and failed, and
// the digest every rep must reproduce.
type runner struct {
	w         workloadDef
	seed      int64
	size      float64
	stderr    io.Writer
	attempted int
	failed    int
	digest    string
}

// rep runs one rep, turning a panic, a failed output check or a digest
// that differs from the first rep's into a counted failure.
func (r *runner) rep(p *probe) (t repTiming, out outcome, ok bool) {
	r.attempted++
	err := func() (err error) {
		defer func() {
			if v := recover(); v != nil {
				err = fmt.Errorf("panic: %v", v)
			}
		}()
		t, out, err = r.w.rep(r.seed, r.size, p)
		return err
	}()
	if err == nil {
		switch {
		case r.digest == "":
			r.digest = out.digest
		case out.digest != r.digest:
			err = fmt.Errorf("sim_digest %s differs from the first rep's %s", out.digest, r.digest)
		}
	}
	if err != nil {
		r.failed++
		fmt.Fprintf(r.stderr, "rep %d failed: %v\n", r.attempted, err)
		return t, out, false
	}
	return t, out, true
}

func run(args []string, stdout, stderr io.Writer, cat []workloadDef, size float64) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: gamma_burst, paper_e2e, llm_decode or place_churn")
	seed := fs.Int64("seed", 1, "seed of the workload's inputs (0 is the same as 1, core.Config's default seed)")
	seconds := fs.Float64("seconds", 10, "host seconds of timed reps to measure")
	trace := fs.Int("trace", 0, "1 adds a traced rep and reports per-layer metrics instead of end-to-end ones")
	traceOut := fs.String("trace-out", "", "Chrome trace-event JSON file of the traced rep (default .bench_build/trace-<workload>-seed<n>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w workloadDef
	for _, c := range cat {
		if c.name == *name {
			w = c
		}
	}
	if w.rep == nil || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "benchmark: need --workload (one of the catalog) and --trace 0|1\n")
		return 2
	}
	if *seed == 0 {
		*seed = 1
	}
	r := &runner{w: w, seed: *seed, size: size, stderr: stderr}

	fmt.Fprintf(stdout, "workload %s seed %d: GOMAXPROCS %d, nproc %d, %s\n",
		w.name, *seed, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	for warm := time.Now(); ; {
		if _, _, ok := r.rep(nil); !ok {
			return finish(stdout, r, nil)
		}
		if time.Since(warm).Seconds() >= warmupShare**seconds {
			break
		}
	}

	var reps []timedRep
	var sim outcome // every timed rep simulated the same, by its digest
	begin := time.Now()
	// Reps run back to back while the next one, taking as long as the
	// median so far, still ends within --seconds.
	for len(reps) < minTimedReps || time.Since(begin).Seconds()+median(collect(reps, repWall)) <= *seconds {
		runtime.GC()
		// Each rep reports its own peak RSS; where the kernel refuses the
		// reset, every rep reports the process's peak so far.
		if err := resetPeakRSS(); err != nil && len(reps) == 0 {
			fmt.Fprintf(stderr, "benchmark: %v; max_rss_mb is the process's peak\n", err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t, out, ok := r.rep(nil)
		runtime.ReadMemStats(&m1)
		if !ok {
			return finish(stdout, r, nil)
		}
		rss, err := maxRSSMiB()
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return finish(stdout, r, nil)
		}
		reps = append(reps, timedRep{t, float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20), rss})
		sim = out
		fmt.Fprintf(stdout, "rep %d: wall %.4f s, setup %.4f s, alloc %.2f MiB, peak RSS %.2f MiB\n",
			len(reps), t.wall.Seconds(), t.setup.Seconds(), reps[len(reps)-1].allocMiB, rss)
	}
	fmt.Fprintf(stdout, "%d timed reps in %.1f s, sim_digest %s\n", len(reps), time.Since(begin).Seconds(), r.digest)
	e2e := endToEnd(stdout, reps)
	if *trace == 0 {
		return finish(stdout, r, e2e)
	}

	path := *traceOut
	if path == "" {
		path = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
	}
	layers, err := traced(stdout, r, reps, sim, path)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	return finish(stdout, r, layers)
}

// traced runs the traced rep: spans, invariant checkers and a CPU
// profile. It prints the self-time table, writes the Chrome trace and
// returns the per-layer metrics.
func traced(stdout io.Writer, r *runner, reps []timedRep, sim outcome, path string) ([]metric, error) {
	runtime.GC()
	p := newProbe(r.attempted + 1)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	root := p.begin("rep")
	t, out, ok := r.rep(p)
	if len(p.open) > 0 {
		// A failed rep may leave spans open; close them with the root.
		p.open = p.open[:1]
	}
	p.end(root)
	pprof.StopCPUProfile()
	if !ok {
		return nil, nil
	}
	shares, err := moduleShares(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("read CPU profile: %w", err)
	}
	wall := p.spans[root].end - p.spans[root].start
	fmt.Fprintf(stdout, "traced rep: %.3f s, sim_digest %s\n", wall.Seconds(), out.digest)
	p.writeLayerTable(stdout)

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("trace directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("create trace: %w", err)
	}
	err = p.writeChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("write trace %s: %w", path, err)
	}
	fmt.Fprintf(stdout, "trace: %s (%d spans)\n", path, len(p.spans))

	layers := perLayer(p, t, out, reps, sim, shares)
	for _, m := range layers {
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", m.name, m.value, m.unit)
	}
	return layers, nil
}

// finish prints the result line and returns the exit code: 0 only when
// every rep passed and the metrics were measured.
func finish(stdout io.Writer, r *runner, metrics []metric) int {
	res := result{
		Correct:   r.failed == 0 && metrics != nil,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]resultValue{},
	}
	for _, m := range metrics {
		res.Metrics[m.name] = resultValue{m.value, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stdout, "{\"correct\":false,\"attempted\":%d,\"failed\":%d,\"metrics\":{}}\n", r.attempted, r.failed+1)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// repMetrics are the end-to-end metrics measured on every timed rep.
var repMetrics = []struct {
	name, unit string
	get        func(timedRep) float64
}{
	{"wall_s", "s", repWall},
	{"setup_s", "s", func(r timedRep) float64 { return r.setup.Seconds() }},
	{"alloc_mb", "MiB", func(r timedRep) float64 { return r.allocMiB }},
	{"max_rss_mb", "MiB", func(r timedRep) float64 { return r.rssMiB }},
}

// endToEnd returns the end-to-end metrics, the medians over the timed
// reps, printing each with its quartiles and sample count.
func endToEnd(w io.Writer, reps []timedRep) []metric {
	var out []metric
	for _, m := range repMetrics {
		xs := collect(reps, m.get)
		q1, q3 := quartiles(xs)
		fmt.Fprintf(w, "%-12s median %10.4f %-3s  q1 %10.4f  q3 %10.4f  n=%d\n", m.name, median(xs), m.unit, q1, q3, len(xs))
		out = append(out, metric{m.name, m.unit, median(xs)})
	}
	return out
}

func repWall(r timedRep) float64 { return r.wall.Seconds() }

func collect[T any](xs []T, get func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = get(x)
	}
	return out
}

// resetPeakRSS restarts the process's peak resident set size from its
// current size (Linux, clear_refs value 5).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// maxRSSMiB returns the process's peak resident set size since its start
// or the last resetPeakRSS.
func maxRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}
