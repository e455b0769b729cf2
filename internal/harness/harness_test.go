package harness

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"dilu/internal/experiments"
	"dilu/internal/report"
	"dilu/internal/sim"
)

// fakeJob builds a synthetic job whose report content depends only on id
// and seed, with an optional artificial delay.
func fakeJob(id string, seed int64, delay time.Duration, fail bool) Job {
	return Job{
		Driver: id, Paper: "fake", Tier: experiments.TierQuick, Seed: seed, Scale: 1,
		Run: func(m *sim.Meter) *report.Report {
			if delay > 0 {
				time.Sleep(delay)
			}
			if fail {
				panic("synthetic failure")
			}
			m.AddVirtual(42 * sim.Second)
			rep := report.New(id, "fake "+id)
			rep.AddTable(report.NewTable("t", "k", "v")).AddRow(id, fmt.Sprintf("%d", seed))
			return rep
		},
	}
}

func fakeSuite(n int) []Job {
	var jobs []Job
	for i := 0; i < n; i++ {
		jobs = append(jobs, fakeJob(fmt.Sprintf("job%02d", i), int64(i%3+1), 0, false))
	}
	return jobs
}

func TestManifestIdenticalAcrossParallelism(t *testing.T) {
	run := func(parallel int) string {
		out := Run(Config{Suite: "fake", Parallel: parallel}, fakeSuite(12))
		if out.Failed() {
			t.Fatalf("parallel=%d: suite failed", parallel)
		}
		return out.Manifest.JSON()
	}
	m1, m8 := run(1), run(8)
	if m1 != m8 {
		t.Fatalf("manifest bytes differ between -parallel 1 and -parallel 8:\n%s\nvs\n%s", m1, m8)
	}
}

// The real thing: a subset of quick registry drivers must produce
// byte-identical manifests at parallel 1 vs 8 for the same seed.
func TestRegistryDriversDeterministicAcrossParallelism(t *testing.T) {
	var drivers []experiments.Driver
	for _, id := range []string{"table2", "figure9", "figure14", "figure2"} {
		d, err := experiments.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		drivers = append(drivers, d)
	}
	jobs := Jobs(drivers, []int64{1, 7}, 0.1)
	if len(jobs) != 8 {
		t.Fatalf("jobs = %d, want 8 (4 drivers × 2 seeds)", len(jobs))
	}
	m1 := Run(Config{Suite: "bench", Parallel: 1}, jobs).Manifest.JSON()
	m8 := Run(Config{Suite: "bench", Parallel: 8}, jobs).Manifest.JSON()
	if m1 != m8 {
		t.Fatalf("registry manifest differs across parallelism:\n%s\nvs\n%s", m1, m8)
	}
}

func TestVirtualTimeMetered(t *testing.T) {
	d, err := experiments.ByID("figure9")
	if err != nil {
		t.Fatal(err)
	}
	out := Run(Config{Suite: "s", Parallel: 1}, Jobs([]experiments.Driver{d}, nil, 0.1))
	res := out.Results[0]
	if res.Status != report.RunOK {
		t.Fatalf("status = %s: %v", res.Status, res.Err)
	}
	// figure9 runs 4 pairs × 4 baselines of 10+ virtual seconds each.
	if res.Virtual < 100*sim.Second {
		t.Fatalf("virtual time %v implausibly low — meter not attached?", res.Virtual)
	}
	if res.Engines < 16 {
		t.Fatalf("engines = %d, want ≥ 16", res.Engines)
	}
	rec := out.Manifest.Find("figure9/seed=1/scale=0.1")
	if rec == nil || rec.VirtualSeconds <= 0 {
		t.Fatalf("manifest virtual seconds missing: %+v", rec)
	}
}

func TestTimeoutMarksRunAndSuiteContinues(t *testing.T) {
	jobs := []Job{
		fakeJob("slow", 1, 2*time.Second, false),
		fakeJob("fast", 1, 0, false),
	}
	out := Run(Config{Suite: "s", Parallel: 1, Timeout: 50 * time.Millisecond}, jobs)
	if out.Results[0].Status != report.RunTimeout {
		t.Fatalf("slow job status = %s", out.Results[0].Status)
	}
	if out.Results[1].Status != report.RunOK {
		t.Fatalf("fast job status = %s (suite did not continue)", out.Results[1].Status)
	}
	if out.Manifest.Totals.Timeout != 1 || out.Manifest.Totals.OK != 1 {
		t.Fatalf("totals %+v", out.Manifest.Totals)
	}
}

// engineJob runs one engine on the job's meter to the horizon, with a
// ticker counting the ticks it fires.
func engineJob(id string, horizon sim.Time) Job {
	return Job{
		Driver: id, Paper: "fake", Tier: experiments.TierQuick, Seed: 1, Scale: 1,
		Run: func(m *sim.Meter) *report.Report {
			eng := sim.NewEngine()
			eng.SetMeter(m)
			ticks := 0
			eng.AddTicker(sim.TickerFunc(func(sim.Time) { ticks++ }))
			eng.Run(horizon)
			rep := report.New(id, "engine "+id)
			rep.AddTable(report.NewTable("t", "ticks")).AddRow(fmt.Sprint(ticks))
			return rep
		},
	}
}

// A timed-out job's engine stops at its next tick boundary, so the job's
// goroutine exits instead of simulating on unobserved, and the other
// jobs' records are what they are without it.
func TestTimeoutStopsEngines(t *testing.T) {
	before := runtime.NumGoroutine()
	short := []Job{engineJob("a", 10*sim.Second), engineJob("c", 20*sim.Second)}
	// Ten thousand simulated hours: minutes of host time if not stopped.
	long := engineJob("long", 10_000*sim.Hour)
	returned := make(chan struct{})
	run := long.Run
	long.Run = func(m *sim.Meter) *report.Report {
		defer close(returned)
		return run(m)
	}
	jobs := []Job{short[0], long, short[1]}
	out := Run(Config{Suite: "s", Parallel: 1, Timeout: 50 * time.Millisecond}, jobs)
	if got := out.Results[1].Status; got != report.RunTimeout {
		t.Fatalf("long job status = %s, want timeout", got)
	}

	const grace = 5 * time.Second
	select {
	case <-returned:
	case <-time.After(grace):
		t.Fatalf("the timed-out job still runs %v after the suite", grace)
	}
	deadline := time.Now().Add(grace)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines %v after the job returned, %d before the suite",
				runtime.NumGoroutine(), grace, before)
		}
		time.Sleep(5 * time.Millisecond)
	}

	alone := Run(Config{Suite: "s", Parallel: 1}, short)
	for _, j := range short {
		want, _ := json.Marshal(alone.Manifest.Find(j.Key()))
		got, _ := json.Marshal(out.Manifest.Find(j.Key()))
		if string(got) != string(want) {
			t.Fatalf("%s record beside the timed-out job:\n%s\nalone:\n%s", j.Driver, got, want)
		}
	}
}

func TestFailFastSkipsRemaining(t *testing.T) {
	jobs := []Job{
		fakeJob("boom", 1, 0, true),
		fakeJob("a", 1, 10*time.Millisecond, false),
		fakeJob("b", 1, 10*time.Millisecond, false),
	}
	out := Run(Config{Suite: "s", Parallel: 1, FailFast: true}, jobs)
	if out.Results[0].Status != report.RunFailed {
		t.Fatalf("first job status = %s", out.Results[0].Status)
	}
	for i := 1; i < 3; i++ {
		if out.Results[i].Status != report.RunSkipped {
			t.Fatalf("job %d status = %s, want skipped", i, out.Results[i].Status)
		}
	}
	if !out.Failed() {
		t.Fatal("outcome should report failure")
	}
}

func TestPanicBecomesFailedResult(t *testing.T) {
	out := Run(Config{Suite: "s", Parallel: 2}, []Job{
		fakeJob("boom", 1, 0, true),
		fakeJob("ok", 1, 0, false),
	})
	if out.Results[0].Status != report.RunFailed || out.Results[0].Err == nil {
		t.Fatalf("panic result: %+v", out.Results[0])
	}
	if out.Results[1].Status != report.RunOK {
		t.Fatalf("healthy job dragged down: %+v", out.Results[1])
	}
	rec := out.Manifest.Find("boom/seed=1/scale=1")
	if rec == nil || rec.Status != report.RunFailed || rec.Error == "" {
		t.Fatalf("manifest record: %+v", rec)
	}
}

func TestProgressEventsSerializedAndComplete(t *testing.T) {
	var mu sync.Mutex
	starts, dones := 0, 0
	lastDone := 0
	cfg := Config{Suite: "s", Parallel: 4, OnEvent: func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		switch ev.Type {
		case JobStart:
			starts++
		case JobDone:
			dones++
			if ev.Done <= lastDone {
				t.Errorf("done counter not monotonic: %d after %d", ev.Done, lastDone)
			}
			lastDone = ev.Done
			if ev.Result == nil {
				t.Error("JobDone without result")
			}
		}
	}}
	out := Run(cfg, fakeSuite(10))
	if starts != 10 || dones != 10 {
		t.Fatalf("events: %d starts, %d dones, want 10/10", starts, dones)
	}
	if out.Failed() {
		t.Fatal("suite failed")
	}
}

func TestJobsDefaultsSeed(t *testing.T) {
	d, _ := experiments.ByID("table2")
	jobs := Jobs([]experiments.Driver{d}, nil, 0.5)
	if len(jobs) != 1 || jobs[0].Seed != 1 || jobs[0].Scale != 0.5 {
		t.Fatalf("jobs = %+v", jobs)
	}
	if jobs[0].Key() != "table2/seed=1/scale=0.5" {
		t.Fatalf("key = %s", jobs[0].Key())
	}
}

func TestJobsNormalizeAndDedupe(t *testing.T) {
	d, _ := experiments.ByID("table2")
	// Seed 0 normalizes to 1 (what the driver actually runs), so the
	// manifest key must say seed=1 — and seeds {0, 1} are one job.
	jobs := Jobs([]experiments.Driver{d}, []int64{0, 1}, 0.05)
	if len(jobs) != 1 {
		t.Fatalf("jobs = %d, want 1 after normalization dedupe", len(jobs))
	}
	if jobs[0].Key() != "table2/seed=1/scale=0.1" {
		t.Fatalf("key = %s, want normalized seed=1 scale=0.1", jobs[0].Key())
	}
}
