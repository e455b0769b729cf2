// Package harness runs experiment suites on a worker pool. Each job is
// one driver at one (seed, scale) and executes on its own independent
// simulation engines (sim.Engine is single-threaded by design; see
// internal/sim), so jobs parallelize perfectly. The harness collects
// per-run timing — wall time, virtual time simulated, and
// virtual-seconds-per-wall-second throughput — and aggregates results
// into a deterministic, seed-reproducible suite manifest whose bytes do
// not depend on worker count or completion order.
//
// This is the enabling layer for sweep-style scenarios: sensitivity
// grids, multi-seed confidence intervals, and large-cluster scaling
// curves all decompose into independent jobs the pool can drain.
package harness

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"dilu/internal/experiments"
	"dilu/internal/report"
	"dilu/internal/sim"
)

// Job is one unit of suite work: one driver run at one (seed, scale).
// Run receives a fresh meter the harness uses for virtual-time
// accounting; implementations must attach it to every engine they build
// (experiments.Options.Meter does this for all registry drivers).
type Job struct {
	Driver string
	Paper  string
	Tier   experiments.Tier
	Seed   int64
	Scale  float64
	Run    func(m *sim.Meter) *report.Report
}

// Key identifies the job inside the manifest (see report.RunKey).
func (j Job) Key() string { return report.RunKey(j.Driver, j.Seed, j.Scale) }

// Jobs expands drivers × seeds at one scale into the job list, in
// registry order with seeds ascending per driver — the deterministic
// submission order the manifest is keyed by. Seed and scale are
// normalized the way every driver normalizes them (seed 0→1, scale
// clamped to [0.1, …]) so manifest records state the parameters that
// actually ran; jobs that normalize to the same key are deduplicated.
func Jobs(drivers []experiments.Driver, seeds []int64, scale float64) []Job {
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	seen := map[string]bool{}
	var out []Job
	for _, d := range drivers {
		d := d
		for _, seed := range seeds {
			opts := experiments.Options{Scale: scale, Seed: seed}.Normalized()
			job := Job{
				Driver: d.ID,
				Paper:  d.Paper,
				Tier:   d.Tier,
				Seed:   opts.Seed,
				Scale:  opts.Scale,
				Run: func(m *sim.Meter) *report.Report {
					o := opts
					o.Meter = m
					return d.Run(o)
				},
			}
			if seen[job.Key()] {
				continue
			}
			seen[job.Key()] = true
			out = append(out, job)
		}
	}
	return out
}

// EventType distinguishes progress callbacks.
type EventType int

const (
	// JobStart fires when a worker picks the job up.
	JobStart EventType = iota
	// JobDone fires when the job finishes (any status).
	JobDone
)

// Event is one progress notification. Events for different jobs may be
// emitted concurrently; the harness serializes callback invocations.
type Event struct {
	Type   EventType
	Job    Job
	Index  int // position in the submitted job list
	Total  int
	Done   int // completed jobs including this one (JobDone only)
	Result *Result
}

// Config tunes a suite run.
type Config struct {
	// Suite names the manifest (e.g. "dilu-bench").
	Suite string
	// Parallel is the worker count; <= 0 means GOMAXPROCS.
	Parallel int
	// Timeout bounds each job's wall time; 0 disables. A timed-out job is
	// recorded at once and its meter stopped, so every engine the job
	// runs returns at its next tick boundary and the job's goroutine
	// winds down on its own; its eventual result is discarded. Work
	// outside an engine's Run (setup, summaries, engine-free replays)
	// is not interrupted.
	Timeout time.Duration
	// FailFast stops dispatching new jobs after the first failure or
	// timeout; undispatched jobs are recorded as skipped.
	FailFast bool
	// OnEvent, when non-nil, receives serialized progress events.
	OnEvent func(Event)
}

// Result is the outcome of one job.
type Result struct {
	Job     Job
	Status  report.RunStatus
	Err     error
	Report  *report.Report // nil unless Status == RunOK
	Wall    time.Duration
	Virtual sim.Duration
	Engines int64
}

// Outcome is the full result of a suite run.
type Outcome struct {
	// Results are in job submission order, one per submitted job.
	Results []Result
	// Manifest is the deterministic suite record.
	Manifest *report.Manifest
	// Wall is the suite's total wall time.
	Wall time.Duration
}

// Failed reports whether any run did not complete ok.
func (o *Outcome) Failed() bool {
	for _, r := range o.Results {
		if r.Status != report.RunOK {
			return true
		}
	}
	return false
}

// Run drains the job list through the worker pool and assembles the
// outcome. The manifest (and Results order) is deterministic for a given
// job list regardless of cfg.Parallel; see Config for the fail-fast and
// timeout caveats.
func Run(cfg Config, jobs []Job) *Outcome {
	workers := cfg.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) && len(jobs) > 0 {
		workers = len(jobs)
	}

	start := time.Now()
	results := make([]Result, len(jobs))

	var mu sync.Mutex // serializes OnEvent and the done counter
	done := 0
	emit := func(ev Event) {
		if cfg.OnEvent == nil {
			return
		}
		mu.Lock()
		if ev.Type == JobDone {
			done++
			ev.Done = done
		}
		ev.Total = len(jobs)
		cfg.OnEvent(ev)
		mu.Unlock()
	}

	// stop flips once under FailFast; workers then drain the queue by
	// marking remaining jobs skipped without running them.
	var stopMu sync.Mutex
	stopped := false
	shouldStop := func() bool {
		stopMu.Lock()
		defer stopMu.Unlock()
		return stopped
	}
	stop := func() {
		stopMu.Lock()
		stopped = true
		stopMu.Unlock()
	}

	queue := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range queue {
				job := jobs[idx]
				if cfg.FailFast && shouldStop() {
					results[idx] = Result{Job: job, Status: report.RunSkipped,
						Err: fmt.Errorf("harness: skipped by fail-fast")}
					emit(Event{Type: JobDone, Job: job, Index: idx, Result: &results[idx]})
					continue
				}
				emit(Event{Type: JobStart, Job: job, Index: idx})
				res := runOne(job, cfg.Timeout)
				results[idx] = res
				if cfg.FailFast && res.Status != report.RunOK {
					stop()
				}
				emit(Event{Type: JobDone, Job: job, Index: idx, Result: &results[idx]})
			}
		}()
	}
	for idx := range jobs {
		queue <- idx
	}
	close(queue)
	wg.Wait()

	out := &Outcome{Results: results, Wall: time.Since(start)}
	out.Manifest = buildManifest(cfg.Suite, results)
	return out
}

// runOne executes a single job, recovering panics and enforcing the
// per-job timeout.
func runOne(job Job, timeout time.Duration) Result {
	type payload struct {
		rep *report.Report
		err error
	}
	meter := new(sim.Meter)
	begin := time.Now()
	ch := make(chan payload, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- payload{err: fmt.Errorf("harness: %s panicked: %v", job.Key(), r)}
			}
		}()
		ch <- payload{rep: job.Run(meter)}
	}()

	var p payload
	if timeout > 0 {
		select {
		case p = <-ch:
		case <-time.After(timeout):
			meter.Stop()
			// Keep the error wall-clock-free: it lands in the manifest's
			// Error field, whose bytes must be reproducible.
			return Result{
				Job: job, Status: report.RunTimeout,
				Err:  fmt.Errorf("harness: %s exceeded timeout %s", job.Key(), timeout),
				Wall: time.Since(begin), Virtual: meter.Virtual(), Engines: meter.Engines(),
			}
		}
	} else {
		p = <-ch
	}
	wall := time.Since(begin)
	res := Result{Job: job, Wall: wall, Virtual: meter.Virtual(), Engines: meter.Engines()}
	switch {
	case p.err != nil:
		res.Status, res.Err = report.RunFailed, p.err
	case p.rep == nil:
		res.Status, res.Err = report.RunFailed, fmt.Errorf("harness: %s returned a nil report", job.Key())
	default:
		res.Status, res.Report = report.RunOK, p.rep
	}
	return res
}

// buildManifest turns results into the deterministic suite manifest.
// Timing fields are carried on the records for TimingTable but excluded
// from the manifest's serialized bytes (see report.RunRecord).
func buildManifest(suite string, results []Result) *report.Manifest {
	m := report.NewManifest(suite)
	for _, r := range results {
		rec := report.RunRecord{
			Driver: r.Job.Driver,
			Paper:  r.Job.Paper,
			Tier:   string(r.Job.Tier),
			Seed:   r.Job.Seed,
			Scale:  r.Job.Scale,
			Status: r.Status,
		}
		if r.Err != nil {
			rec.Error = r.Err.Error()
		}
		if r.Status == report.RunOK {
			rec.Fingerprint = report.Fingerprint(r.Report)
			rec.Tables = len(r.Report.Tables)
			rec.Series = len(r.Report.Series)
			rec.SLO = report.SLOBlockOf(r.Report.SLO)
		}
		// Timed-out and failed runs may have advanced virtual time, but
		// the amount is racy (it depends on where the run was cut off),
		// so only completed runs contribute deterministic virtual time.
		if r.Status == report.RunOK {
			rec.VirtualSeconds = sim.Time(r.Virtual).Seconds()
			rec.Engines = r.Engines
		}
		rec.WallSeconds = r.Wall.Seconds()
		if r.Wall > 0 {
			// From rec.VirtualSeconds, not r.Virtual: a cut-off run's
			// meter reading is racy, so its throughput is withheld along
			// with its virtual time.
			rec.Throughput = rec.VirtualSeconds / r.Wall.Seconds()
		}
		m.Add(rec)
	}
	m.Normalize()
	return m
}
