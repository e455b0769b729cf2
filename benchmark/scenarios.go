package main

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"slices"
	"strconv"
	"time"

	"dilu/internal/cluster"
	"dilu/internal/core"
	"dilu/internal/model"
	"dilu/internal/profiler"
	"dilu/internal/scaler"
	"dilu/internal/sched"
	"dilu/internal/sim"
	"dilu/internal/simtest"
	"dilu/internal/workload"
)

// workloadDef is one benchmark workload. rep runs one complete scenario
// from a seed; size scales its work (1 is the benchmark's own size; the
// smoke test runs smaller sizes): the arrival rates of gamma_burst, the
// simulated horizon of paper_e2e and llm_decode, and the cluster and mix
// of place_churn.
type workloadDef struct {
	name string
	rep  func(seed int64, size float64, p *probe) (repTiming, outcome, error)
}

// repTiming is one rep's host time: setup is the part before simulated
// time starts, run the simulated-time phase, wall everything up to and
// including the results roll-up.
type repTiming struct {
	setup, run, wall time.Duration
}

// outcome is what one rep simulated: the counters the per-layer metrics
// report, and a digest of every simulated output the benchmark reads.
type outcome struct {
	digest string

	submitted, shed, served, lost, coldStarts int64
	tokensOut, preemptions, refusals          int64
	kvPeakMB                                  float64
	p99ms, goodputRPS                         float64
	peakGPUs                                  float64

	requests, placed int // place_churn: placement requests and successes

	ticks    int64
	virtualS float64
}

// catalog lists the workloads in the order a full pass runs them. Each
// loads a different layer; README.md records why each was chosen.
var catalog = []workloadDef{
	// Deploy pre-generates a 4 h arrival horizon: workload dominates.
	{"gamma_burst", func(seed int64, size float64, p *probe) (repTiming, outcome, error) {
		return runServing(gammaBurst(size), seed, p)
	}},
	// The paper's headline scenario: the 5 ms tick loop dominates.
	{"paper_e2e", func(seed int64, size float64, p *probe) (repTiming, outcome, error) {
		return runServing(paperE2E(size), seed, p)
	}},
	// The same core and instance layers through token-level decode steps.
	{"llm_decode", func(seed int64, size float64, p *probe) (repTiming, outcome, error) {
		return runServing(llmDecode(size), seed, p)
	}},
	// No engine: Dilu Schedule scans over the cluster indexes dominate.
	{"place_churn", runPlaceChurn},
}

// ---------------------------------------------------------------------------
// Serving workloads: a core.System with deployments, run over a horizon.

type trainSpec struct {
	name, model string
	workers     int
	startAt     sim.Time
}

type inferSpec struct {
	name, model string
	opts        core.InferOpts
}

type servingSpec struct {
	cfg     core.Config // Seed, Meter, NewScaler and Invariants are set per rep
	scaled  bool        // attach the lazy Dilu horizontal scaler
	jobs    []trainSpec
	funcs   []inferSpec
	horizon sim.Duration
	// kvCapMB bounds the per-GPU KV-cache peak of token-level workloads.
	kvCapMB float64
}

// dur scales a simulated duration by size.
func dur(d sim.Duration, size float64) sim.Duration { return sim.Duration(float64(d) * size) }

// gammaBurst: 16 inference functions, four each of ResNet152, VGG19,
// BERT-base and RoBERTa-large, every one under Gamma(40 rps, CV 4), on
// the full Dilu stack for 60 s.
func gammaBurst(size float64) servingSpec {
	s := servingSpec{
		cfg:     core.Config{Nodes: 5, GPUsPerNode: 4, Policy: "Dilu", Scheduler: "Dilu"},
		scaled:  true,
		horizon: 60 * sim.Second,
	}
	for i, m := range []string{"ResNet152", "VGG19", "BERT-base", "RoBERTa-large"} {
		for k := 0; k < 4; k++ {
			s.funcs = append(s.funcs, inferSpec{
				name: fmt.Sprintf("g%d-%s", 4*i+k, m), model: m,
				opts: core.InferOpts{Instances: 1, Arrivals: workload.Gamma{RPS: 40 * size, CV: 4}},
			})
		}
	}
	return s
}

// paperE2E: the §5.4 end-to-end mix on the full Dilu stack for 900 s.
func paperE2E(size float64) servingSpec {
	return servingSpec{
		cfg:    core.Config{Nodes: 5, GPUsPerNode: 4, Policy: "Dilu", Scheduler: "Dilu"},
		scaled: true,
		jobs: []trainSpec{
			{"bert-train", "BERT-base", 2, 0},
			{"resnet-train", "ResNet152", 2, dur(30*sim.Second, size)},
			{"gpt2-train", "GPT2-large", 4, dur(60*sim.Second, size)},
			{"llama-ft", "LLaMA2-7B", 4, dur(90*sim.Second, size)},
		},
		funcs: []inferSpec{
			{"rob-inf", "RoBERTa-large", core.InferOpts{Instances: 1, Arrivals: workload.Bursty{
				BaseRPS: 25, Scale: 4, BurstDur: 30 * sim.Second, Quiet: 60 * sim.Second}}},
			{"bert-inf", "BERT-base", core.InferOpts{Instances: 1, Arrivals: workload.Periodic{
				BaseRPS: 90, Amp: 0.8, Period: 150 * sim.Second}}},
			{"vgg-inf", "VGG19", core.InferOpts{Instances: 1, Arrivals: workload.Poisson{RPS: 40}}},
		},
		horizon: dur(900*sim.Second, size),
	}
}

// llmKVCapMB is the llm_decode card: LLaMA2-7B's 16 GB of weights leave
// about 2 GB of KV cache per GPU.
const llmKVCapMB = 18 * 1024

// llmDecode: LLaMA2-7B on 16 single-stage instances, one per KV-tight
// GPU, continuous batching up to 16 sequences, Poisson(36 rps) for
// 1800 s — about 80 % of capacity, with no growing backlog.
func llmDecode(size float64) servingSpec {
	return servingSpec{
		cfg: core.Config{
			Nodes: 4, GPUsPerNode: 4, Policy: "Dilu", Scheduler: "Dilu",
			Classes: []cluster.GPUClass{{Name: "kv-tight", Capacity: 1, MemCapMB: llmKVCapMB, Weight: 1}},
		},
		funcs: []inferSpec{{"llama2", "LLaMA2-7B", core.InferOpts{
			Instances: 16, Stages: 1, NoScaler: true,
			Arrivals: workload.Poisson{RPS: 36},
			LLM: &core.LLMOpts{
				MaxBatch: 16,
				TTFT:     300 * sim.Millisecond,
				TPOT:     80 * sim.Millisecond,
				Tokens:   workload.ZipfTokenMix{PromptMin: 16, PromptMax: 512, DecodeMin: 8, DecodeMax: 256, Alpha: 1.1},
			},
		}}},
		horizon: dur(1800*sim.Second, size),
		kvCapMB: llmKVCapMB,
	}
}

// sliceLen is the simulated time one core.slice span covers on a traced
// rep; System.Run over consecutive slices simulates exactly what one Run
// over the horizon does.
const sliceLen = 100 * sim.Millisecond

func runServing(spec servingSpec, seed int64, p *probe) (repTiming, outcome, error) {
	var t repTiming
	start := time.Now()
	meter := new(sim.Meter)
	cfg := spec.cfg
	cfg.Seed, cfg.Meter = seed, meter
	if spec.scaled {
		cfg.NewScaler = p.scaler(func() scaler.Policy { return scaler.NewDilu(scaler.DiluConfig{}) })
	}
	cfg.Invariants = p.invariants(simtest.Checkers())

	id := p.begin("core.build")
	sys, err := core.NewSystem(cfg)
	p.end(id)
	if err != nil {
		return t, outcome{}, fmt.Errorf("build system: %w", err)
	}
	for _, j := range spec.jobs {
		id := p.begin("core.deploy")
		_, err := sys.DeployTraining(j.name, j.model, core.TrainOpts{Workers: j.workers, StartAt: j.startAt})
		p.end(id)
		if err != nil {
			return t, outcome{}, fmt.Errorf("deploy %s: %w", j.name, err)
		}
	}
	for _, fn := range spec.funcs {
		opts := fn.opts
		opts.Arrivals = p.arrivals(opts.Arrivals)
		id := p.begin("core.deploy")
		_, err := sys.DeployInference(fn.name, fn.model, opts)
		p.end(id)
		if err != nil {
			return t, outcome{}, fmt.Errorf("deploy %s: %w", fn.name, err)
		}
	}
	t.setup = time.Since(start)

	runStart := time.Now()
	id = p.begin("core.run")
	if p == nil {
		sys.Run(spec.horizon)
	} else {
		for end := sys.Eng.Now() + spec.horizon; sys.Eng.Now() < end; {
			s := p.begin("core.slice")
			sys.Run(min(sliceLen, end-sys.Eng.Now()))
			p.end(s)
		}
	}
	p.end(id)
	t.run = time.Since(runStart)

	id = p.begin("core.summary")
	sum := sys.SLOSummary()
	p.end(id)
	t.wall = time.Since(start)

	out := outcome{
		goodputRPS: sum.GoodputRPS,
		peakGPUs:   sys.GPUSeries.Max(),
		ticks:      meter.Ticks(),
		virtualS:   meter.VirtualSeconds(),
	}
	d := newDigest()
	var errs []error
	for _, f := range sys.Functions() {
		sub, adm, shed := f.GatewayCounts()
		served, lost, inflight := f.Served(), f.Lost(), f.InFlightCount()
		if sub != adm+shed {
			errs = append(errs, fmt.Errorf("%s: submitted %d ≠ admitted %d + shed %d", f.Name, sub, adm, shed))
		}
		if adm != served+inflight+lost {
			errs = append(errs, fmt.Errorf("%s: admitted %d ≠ served %d + in flight %d + lost %d", f.Name, adm, served, inflight, lost))
		}
		if rc := f.RecountInFlight(); rc != inflight {
			errs = append(errs, fmt.Errorf("%s: recounted in-flight %d ≠ ledger %d", f.Name, rc, inflight))
		}
		if served <= 0 {
			errs = append(errs, fmt.Errorf("%s: served nothing", f.Name))
		}
		out.submitted += sub
		out.shed += shed
		out.served += served
		out.lost += lost
		out.coldStarts += f.ColdStarts.Value
		out.p99ms = max(out.p99ms, f.Rec.P99().Millis())
		d.add("func %s %d %d %d %d %d %d %d p50 %d p99 %d", f.Name, sub, adm, shed, served, lost, inflight,
			f.ColdStarts.Value, int64(f.Rec.P50()), int64(f.Rec.P99()))
	}
	for _, j := range sys.Jobs() {
		if !j.Started() {
			errs = append(errs, fmt.Errorf("%s: training job never started", j.Name))
			continue
		}
		d.add("job %s %d", j.Name, j.Job.Iterations())
	}
	if l := sum.LLM; l != nil {
		out.tokensOut, out.preemptions, out.refusals, out.kvPeakMB = l.TokensOut, l.CacheFullPreemptions, l.AdmitRefusals, l.KVPeakMB
		if l.TokensOut <= 0 {
			errs = append(errs, errors.New("LLM: no tokens generated"))
		}
		if peak := l.KVPeakShare * spec.kvCapMB; peak > spec.kvCapMB {
			errs = append(errs, fmt.Errorf("LLM: per-GPU KV peak %.1f MB exceeds the %.0f MB card", peak, spec.kvCapMB))
		}
		d.add("llm %d %d %d %s %s", l.TokensOut, l.CacheFullPreemptions, l.AdmitRefusals, fstr(l.KVPeakMB), fstr(l.KVPeakShare))
	}
	d.add("gpu-seconds %s", fstr(sys.GPUSecondsUsed()))
	for _, g := range sys.Clu.GPUs() {
		for _, pl := range g.Placements {
			d.add("placement %d %s", g.Pos(), pl.Instance)
		}
	}
	out.digest = d.sum()
	return t, out, errors.Join(errs...)
}

// ---------------------------------------------------------------------------
// place_churn: the §5.5 placement replay, without an engine.

// churnReq is one deployment of the placement mix.
type churnReq struct {
	req            sched.Request
	arrive, depart sim.Time
}

// churnEvent is an arrival or departure of mix[idx].
type churnEvent struct {
	at     sim.Time
	arrive bool
	idx    int
}

// churnMix generates the §5.5 mix the way the evaluation's large-scale
// experiments do: training, LLM and non-LLM inference in the ratio 2:2:6,
// arrivals uniform over the first third of the horizon, exponential
// lifetimes with a mean of half the horizon.
func churnMix(total int, horizon sim.Duration, rng *sim.RNG) []churnReq {
	trainModels := []string{"BERT-base", "ResNet152", "RoBERTa-large", "GPT2-large", "VGG19"}
	llmModels := []string{"LLaMA2-7B", "ChatGLM3-6B"}
	infModels := []string{"ResNet152", "VGG19", "BERT-base", "RoBERTa-large", "GPT2-large"}
	type key struct {
		name string
		role profiler.Role
	}
	profiles := map[key]profiler.Profile{}
	prof := func(name string, role profiler.Role) profiler.Profile {
		k := key{name, role}
		if p, ok := profiles[k]; ok {
			return p
		}
		p := profiler.For(model.ByName(name), role)
		profiles[k] = p
		return p
	}
	out := make([]churnReq, 0, total)
	for i := 0; i < total; i++ {
		arrive := sim.Duration(rng.Float64() * float64(horizon) / 3)
		life := sim.FromSeconds(rng.Exp(1 / (horizon.Seconds() / 2)))
		r := churnReq{arrive: arrive, depart: arrive + life, req: sched.Request{Instances: 1}}
		switch {
		case i%10 < 2:
			name := trainModels[i%len(trainModels)]
			r.req.Func = fmt.Sprintf("train-%s-%d", name, i)
			r.req.Profile = prof(name, profiler.RoleTraining)
			r.req.Instances = 1 + i%3
		case i%10 < 4:
			name := llmModels[i%len(llmModels)]
			r.req.Func = fmt.Sprintf("llm-%s-%d", name, i)
			r.req.Profile = prof(name, profiler.RoleInference)
			r.req.GPUsPerInstance = model.ByName(name).PipelineStages
		default:
			name := infModels[i%len(infModels)]
			r.req.Func = fmt.Sprintf("inf-%s-%d", name, i)
			r.req.Profile = prof(name, profiler.RoleInference)
		}
		out = append(out, r)
	}
	return out
}

const (
	churnNodes     = 10000
	churnInstances = 32000
	churnHorizon   = 3600 * sim.Second
	// churnMinPlaced is the share of placement requests the Dilu
	// scheduler must place on the 40k-GPU cluster.
	churnMinPlaced = 0.9
)

func runPlaceChurn(seed int64, size float64, p *probe) (repTiming, outcome, error) {
	var t repTiming
	start := time.Now()
	id := p.begin("cluster.build")
	clu := cluster.New(cluster.Config{Nodes: max(1, int(churnNodes*size)), GPUsPerNode: 4})
	s := sched.NewDilu(clu, sched.Options{})
	p.end(id)
	id = p.begin("setup.mix")
	mix := churnMix(max(1, int(churnInstances*size)), churnHorizon, sim.NewRNG(seed))
	p.end(id)
	id = p.begin("setup.sort")
	events := make([]churnEvent, 0, 2*len(mix))
	for i, r := range mix {
		events = append(events, churnEvent{r.arrive, true, i})
		if r.depart < churnHorizon {
			events = append(events, churnEvent{r.depart, false, i})
		}
	}
	// (at, idx) is a total order, so the unstable sort is deterministic.
	slices.SortFunc(events, func(a, b churnEvent) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return a.idx - b.idx
	})
	p.end(id)
	t.setup = time.Since(start)

	runStart := time.Now()
	decisions := make([][]sched.Decision, len(mix))
	// The replay covers the horizon in virtual time without an engine.
	out := outcome{virtualS: churnHorizon.Seconds()}
	for _, ev := range events {
		if ev.arrive {
			decs, err := p.schedule(s, mix[ev.idx].req)
			out.requests++
			if err == nil {
				decisions[ev.idx] = decs
				out.placed++
				out.peakGPUs = max(out.peakGPUs, float64(clu.OccupiedCount()))
			}
			continue
		}
		for i := range decisions[ev.idx] {
			p.release(&decisions[ev.idx][i])
		}
	}
	// Instances without a departure event are still placed at the horizon.
	for idx, decs := range decisions {
		if mix[idx].depart < churnHorizon {
			continue
		}
		for i := range decs {
			p.release(&decs[i])
		}
	}
	t.run = time.Since(runStart)
	t.wall = time.Since(start)

	var errs []error
	if n := clu.OccupiedCount(); n != 0 {
		errs = append(errs, fmt.Errorf("%d GPUs still occupied after the final release", n))
	}
	if float64(out.placed) < churnMinPlaced*float64(out.requests) {
		errs = append(errs, fmt.Errorf("placed %d of %d requests, below %.0f%%", out.placed, out.requests, 100*churnMinPlaced))
	}
	d := newDigest()
	for idx, decs := range decisions {
		d.add("req %d", idx)
		for _, dec := range decs {
			for _, g := range dec.GPUs {
				d.add(" %d", g.Pos())
			}
		}
	}
	d.add("placed %d peak %s", out.placed, fstr(out.peakGPUs))
	out.digest = d.sum()
	return t, out, errors.Join(errs...)
}

// ---------------------------------------------------------------------------

// digest hashes a rep's simulated outputs: two reps of one seed must
// produce the same digest whatever the benchmark did around them.
type digest struct{ h hash.Hash }

func newDigest() digest { return digest{sha256.New()} }

func (d digest) add(format string, args ...any) {
	fmt.Fprintf(d.h, format, args...)
	d.h.Write([]byte{'\n'})
}

// sum returns the first 16 hex digits of the hash.
func (d digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// fstr formats a float with every digit, so the digest sees any change.
func fstr(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
