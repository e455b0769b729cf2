// Command dilu-bench regenerates the paper's evaluation tables and
// figures through the parallel experiment harness. Without arguments it
// runs every experiment; pass experiment ids (e.g. "table2 figure7") to
// run a subset.
//
//	dilu-bench -scale 1.0                 # full-length runs (README: Reproducing the paper)
//	dilu-bench -scale 0.25 figure10       # quick look at one artifact
//	dilu-bench -parallel 8                # drain the suite on 8 workers
//	dilu-bench -tier quick                # sub-second smoke subset
//	dilu-bench -seeds 1,2,3 figure9       # multi-seed sweep of one driver
//	dilu-bench -trace prod.csv            # replay an external arrival trace
//	dilu-bench -churn ops.csv -faults gray.csv  # replay a recorded incident
//	dilu-bench -out results -manifest results/manifest.json
//	dilu-bench -list
//
// Progress lines go to stderr; reports and the timing summary go to
// stdout (or to -out when set). The manifest is deterministic for a
// given driver set, seeds, and scale — identical bytes regardless of
// -parallel — and records a fingerprint per run so reproducibility is
// checkable with a diff.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"dilu/internal/experiments"
	"dilu/internal/harness"
	"dilu/internal/report"
	"dilu/internal/workload"
)

func main() { os.Exit(run()) }

// run is main's body; it returns the process exit code instead of
// calling os.Exit so deferred profile writers always flush.
func run() int {
	scale := flag.Float64("scale", 1.0, "experiment duration scale (1.0 = full runs)")
	seed := flag.Int64("seed", 1, "deterministic random seed")
	seeds := flag.String("seeds", "", "comma-separated seed sweep (overrides -seed), e.g. 1,2,3")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker count (1 = serial)")
	timeout := flag.Duration("timeout", 0, "per-driver wall-clock timeout (0 = none), e.g. 5m")
	failFast := flag.Bool("failfast", false, "stop dispatching after the first failure")
	tier := flag.String("tier", "", "run only these cost tiers (comma-separated: quick,standard,slow)")
	tracePath := flag.String("trace", "", "replay this arrival trace file (.csv or .json) through the trace_replay scenario instead of running registry drivers")
	churnPath := flag.String("churn", "", "replay this churn schedule CSV (seconds,action,node) through the disturbance_replay scenario instead of running registry drivers; combinable with -faults")
	faultsPath := flag.String("faults", "", "replay this fault schedule CSV (seconds,action,node,gpu[,factor]) through the disturbance_replay scenario instead of running registry drivers; combinable with -churn")
	list := flag.Bool("list", false, "list experiment ids and exit")
	format := flag.String("format", "text", "report format: text, csv, json")
	outDir := flag.String("out", "", "write per-run reports and the manifest into this directory")
	manifestPath := flag.String("manifest", "", "write the suite manifest JSON to this path")
	quiet := flag.Bool("q", false, "suppress live progress lines")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the suite run to this path")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (taken after the suite) to this path")
	flag.Parse()

	if *list {
		for _, d := range experiments.All() {
			fmt.Printf("%-12s %-9s %s\n", d.ID, d.Tier, d.Paper)
		}
		return 0
	}

	// Validate everything before running: a typo must not cost the user
	// a full suite run (bad format/ids/seeds), and a bad output path
	// must fail in milliseconds, not after the suite finishes.
	if _, ok := formats[*format]; !ok {
		fmt.Fprintf(os.Stderr, "dilu-bench: unknown format %q (valid: text, csv, json)\n", *format)
		return 2
	}
	drivers, err := selectDrivers(flag.Args(), *tier)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *tracePath != "" {
		// An external trace replaces the run set with one trace_replay
		// scenario over the loaded file. Mixing it with ids or tiers
		// would make the manifest ambiguous about what actually ran.
		if len(flag.Args()) > 0 || *tier != "" {
			fmt.Fprintln(os.Stderr, "dilu-bench: -trace cannot be combined with experiment ids or -tier")
			return 2
		}
		tr, err := workload.LoadTrace(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dilu-bench: "+err.Error())
			return 2
		}
		drivers = []experiments.Driver{{
			ID:    "trace_replay",
			Paper: fmt.Sprintf("external trace replay — %s (%d events)", *tracePath, tr.Count()),
			Tier:  experiments.TierStandard,
			Run:   func(o experiments.Options) *report.Report { return experiments.TraceReplayOn(o, tr) },
		}}
	}
	if *churnPath != "" || *faultsPath != "" {
		// External disturbance schedules replace the run set with one
		// disturbance_replay scenario, mirroring -trace. The two flags
		// compose (a real incident usually has both kinds of events) but
		// mixing with ids, tiers, or -trace would make the manifest
		// ambiguous about what actually ran.
		if len(flag.Args()) > 0 || *tier != "" || *tracePath != "" {
			fmt.Fprintln(os.Stderr, "dilu-bench: -churn/-faults cannot be combined with experiment ids, -tier, or -trace")
			return 2
		}
		var churn []workload.ChurnEvent
		var faults []workload.FaultEvent
		var desc []string
		if *churnPath != "" {
			churn, err = workload.LoadChurn(*churnPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dilu-bench: "+err.Error())
				return 2
			}
			desc = append(desc, fmt.Sprintf("%s (%d churn events)", *churnPath, len(churn)))
		}
		if *faultsPath != "" {
			faults, err = workload.LoadFaults(*faultsPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dilu-bench: "+err.Error())
				return 2
			}
			desc = append(desc, fmt.Sprintf("%s (%d fault events)", *faultsPath, len(faults)))
		}
		drivers = []experiments.Driver{{
			ID:    "disturbance_replay",
			Paper: "external disturbance replay — " + strings.Join(desc, ", "),
			Tier:  experiments.TierStandard,
			Run: func(o experiments.Options) *report.Report {
				return experiments.DisturbanceReplayOn(o, churn, faults)
			},
		}}
	}
	seedList, err := parseSeeds(*seeds, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	// Resolve the defaulted manifest path up front so the probe covers
	// the common `-out dir` usage too; probing comes after every other
	// validation so a typo'd argument never touches existing outputs.
	mpath := *manifestPath
	if *outDir != "" && mpath == "" {
		mpath = filepath.Join(*outDir, "manifest.json")
	}
	if err := prepareOutputs(*outDir, mpath); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	// Profiling brackets exactly the suite run: flag validation, report
	// emission, and the heap-profile write stay out of the CPU profile.
	// stopCPU runs right after harness.Run; the defer only covers early
	// exits in between.
	stopCPU := func() {}
	if *cpuProfile != "" {
		pf, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dilu-bench: cannot write -cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			fmt.Fprintf(os.Stderr, "dilu-bench: -cpuprofile: %v\n", err)
			return 2
		}
		stopped := false
		stopCPU = func() {
			if !stopped {
				stopped = true
				pprof.StopCPUProfile()
				pf.Close()
			}
		}
		defer stopCPU()
	}
	if *memProfile != "" {
		// Probe writability now; the profile itself is taken post-run.
		pf, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dilu-bench: cannot write -memprofile: %v\n", err)
			return 2
		}
		defer func() {
			runtime.GC() // materialize final heap statistics
			if err := pprof.Lookup("allocs").WriteTo(pf, 0); err != nil {
				fmt.Fprintf(os.Stderr, "dilu-bench: -memprofile: %v\n", err)
			}
			pf.Close()
		}()
	}

	jobs := harness.Jobs(drivers, seedList, *scale)
	cfg := harness.Config{
		Suite:    "dilu-bench",
		Parallel: *parallel,
		Timeout:  *timeout,
		FailFast: *failFast,
	}
	if !*quiet {
		cfg.OnEvent = progressPrinter()
	}

	outcome := harness.Run(cfg, jobs)
	stopCPU()

	if err := emit(outcome, *format, *outDir, mpath); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	summarize(outcome)
	if outcome.Failed() {
		return 1
	}
	return 0
}

// selectDrivers resolves positional ids and the tier filter into the run
// set, preserving registry (paper) order. Naming a driver that the tier
// filter excludes is an error — a silent partial drop would let the user
// read the resulting manifest as covering a run that never happened.
func selectDrivers(ids []string, tierFlag string) ([]experiments.Driver, error) {
	var tiers []experiments.Tier
	if tierFlag != "" {
		for _, s := range strings.Split(tierFlag, ",") {
			t := experiments.Tier(strings.TrimSpace(s))
			if !t.Valid() {
				return nil, fmt.Errorf("dilu-bench: unknown tier %q (valid: quick, standard, slow)", s)
			}
			tiers = append(tiers, t)
		}
	}
	if len(ids) == 0 {
		if tiers == nil {
			return experiments.All(), nil
		}
		drivers := experiments.ByTier(tiers...)
		if len(drivers) == 0 {
			return nil, fmt.Errorf("dilu-bench: no drivers match tier filter %q", tierFlag)
		}
		return drivers, nil
	}
	inTier := map[string]bool{}
	for _, d := range experiments.ByTier(tiers...) {
		inTier[d.ID] = true
	}
	var drivers []experiments.Driver
	for _, id := range ids {
		d, err := experiments.ByID(id)
		if err != nil {
			return nil, err
		}
		if tiers != nil && !inTier[d.ID] {
			return nil, fmt.Errorf("dilu-bench: %s is %s tier, excluded by -tier %s", d.ID, d.Tier, tierFlag)
		}
		drivers = append(drivers, d)
	}
	return drivers, nil
}

func parseSeeds(sweep string, single int64) ([]int64, error) {
	if sweep == "" {
		return []int64{single}, nil
	}
	var out []int64
	for _, s := range strings.Split(sweep, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("dilu-bench: bad seed %q: %v", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// progressPrinter emits one live line per job completion to stderr.
func progressPrinter() func(harness.Event) {
	return func(ev harness.Event) {
		if ev.Type != harness.JobDone || ev.Result == nil {
			return
		}
		r := ev.Result
		line := fmt.Sprintf("[%d/%d] %-28s %-7s %6.1fs wall",
			ev.Done, ev.Total, r.Job.Key(), r.Status, r.Wall.Seconds())
		if r.Status == report.RunOK && r.Wall > 0 {
			line += fmt.Sprintf("  %8.0fs virtual (%.0f× real-time)",
				r.Virtual.Seconds(), r.Virtual.Seconds()/r.Wall.Seconds())
		}
		if r.Err != nil {
			line += "  " + r.Err.Error()
		}
		fmt.Fprintln(os.Stderr, line)
	}
}

// prepareOutputs creates -out and probes that the manifest's directory
// is writable before the suite runs, so a bad path fails in
// milliseconds instead of discarding a finished run. The probe never
// touches an existing manifest — a later validation failure or Ctrl-C
// must not destroy the previous good one.
func prepareOutputs(outDir, manifestPath string) error {
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return fmt.Errorf("dilu-bench: cannot create -out: %w", err)
		}
	}
	if manifestPath != "" {
		if fi, err := os.Stat(manifestPath); err == nil && fi.IsDir() {
			return fmt.Errorf("dilu-bench: -manifest %s is a directory", manifestPath)
		}
		probe, err := os.CreateTemp(filepath.Dir(manifestPath), ".dilu-bench-probe-*")
		if err != nil {
			return fmt.Errorf("dilu-bench: cannot write -manifest: %w", err)
		}
		probe.Close()
		os.Remove(probe.Name())
	}
	return nil
}

// emit writes reports (stdout or -out files) and the manifest.
func emit(outcome *harness.Outcome, format, outDir, manifestPath string) error {
	f := formats[format]
	for _, res := range outcome.Results {
		if res.Status != report.RunOK {
			continue
		}
		body := f.render(res.Report)
		if outDir == "" {
			fmt.Print(body)
			fmt.Println()
			continue
		}
		name := strings.NewReplacer("/", "-", "=", "").Replace(res.Job.Key()) + f.ext
		if err := os.WriteFile(filepath.Join(outDir, name), []byte(body), 0o644); err != nil {
			return err
		}
	}
	if outDir != "" {
		timing := outcome.Manifest.TimingTable().String()
		if err := os.WriteFile(filepath.Join(outDir, "timings.txt"), []byte(timing), 0o644); err != nil {
			return err
		}
	}
	if manifestPath != "" {
		// Temp-and-rename keeps the previous manifest intact until the
		// new one is fully written.
		tmp, err := os.CreateTemp(filepath.Dir(manifestPath), ".dilu-bench-manifest-*")
		if err != nil {
			return err
		}
		werr := outcome.Manifest.WriteJSON(tmp)
		if cerr := tmp.Close(); werr == nil {
			werr = cerr
		}
		if werr == nil {
			werr = os.Rename(tmp.Name(), manifestPath)
		}
		if werr != nil {
			os.Remove(tmp.Name())
			return werr
		}
	}
	return nil
}

// formats is the single source of truth for -format: renderer + file
// extension. Adding a format means adding one entry here.
var formats = map[string]struct {
	render func(*report.Report) string
	ext    string
}{
	"text": {func(r *report.Report) string { return r.String() }, ".txt"},
	"csv":  {(*report.Report).CSV, ".csv"},
	"json": {(*report.Report).JSON, ".json"},
}

// summarize prints the suite roll-up and timing table to stderr, plus
// every non-ok run's error — unconditionally, so -q never swallows the
// reason behind a non-zero exit.
func summarize(outcome *harness.Outcome) {
	t := outcome.Manifest.Totals
	var virtual, busy float64
	for _, r := range outcome.Results {
		virtual += r.Virtual.Seconds()
		busy += r.Wall.Seconds()
		if r.Status != report.RunOK && r.Err != nil {
			fmt.Fprintf(os.Stderr, "%s: %s: %v\n", r.Job.Key(), r.Status, r.Err)
		}
	}
	fmt.Fprintf(os.Stderr, "\n%s\n", outcome.Manifest.TimingTable().String())
	fmt.Fprintf(os.Stderr,
		"suite: %d runs (%d ok, %d failed, %d timeout, %d skipped) in %.1fs wall; %.0fs virtual simulated (%.1f× real-time, %.1fx worker occupancy)\n",
		t.Runs, t.OK, t.Failed, t.Timeout, t.Skipped,
		outcome.Wall.Seconds(), virtual,
		virtual/max(outcome.Wall.Seconds(), 1e-9),
		busy/max(outcome.Wall.Seconds(), 1e-9))
}
