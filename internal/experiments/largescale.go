package experiments

import (
	"fmt"
	"slices"

	"dilu/internal/cluster"
	"dilu/internal/core"
	"dilu/internal/metrics"
	"dilu/internal/model"
	"dilu/internal/profiler"
	"dilu/internal/rckm"
	"dilu/internal/report"
	"dilu/internal/sched"
	"dilu/internal/sim"
	"dilu/internal/workload"
)

// lsInstance is one deployment of the large-scale placement simulation.
type lsInstance struct {
	fn      string
	profile profiler.Profile
	stages  int
	workers int
	arrive  sim.Time
	depart  sim.Time
}

// largeScaleMix generates the 3,200-instance workload of §5.5: training,
// LLM inference and non-LLM inference in a 2:2:6 ratio, arriving over the
// first horizon third with exponential lifetimes.
func largeScaleMix(total int, horizon sim.Duration, rng *sim.RNG) []lsInstance {
	trainModels := []string{"BERT-base", "ResNet152", "RoBERTa-large", "GPT2-large", "VGG19"}
	llmModels := []string{"LLaMA2-7B", "ChatGLM3-6B"}
	infModels := []string{"ResNet152", "VGG19", "BERT-base", "RoBERTa-large", "GPT2-large"}
	var out []lsInstance
	// The cache key is a comparable struct, not a formatted string: the
	// lookup runs once per generated instance, and Sprintf cost there
	// showed up in the hyperscale (32k-instance) generation profile.
	type profKey struct {
		name string
		role profiler.Role
	}
	profCache := map[profKey]profiler.Profile{}
	prof := func(name string, role profiler.Role) profiler.Profile {
		key := profKey{name, role}
		if p, ok := profCache[key]; ok {
			return p
		}
		p := profiler.For(model.ByName(name), role)
		profCache[key] = p
		return p
	}
	for i := 0; i < total; i++ {
		arrive := sim.Duration(rng.Float64() * float64(horizon) / 3)
		life := sim.FromSeconds(rng.Exp(1 / (horizon.Seconds() / 2)))
		inst := lsInstance{arrive: arrive, depart: arrive + life}
		switch {
		case i%10 < 2: // training
			name := trainModels[i%len(trainModels)]
			inst.fn = fmt.Sprintf("train-%s-%d", name, i)
			inst.profile = prof(name, profiler.RoleTraining)
			inst.workers = 1 + i%3 // 1-3 workers
		case i%10 < 4: // LLM inference
			name := llmModels[i%len(llmModels)]
			inst.fn = fmt.Sprintf("llm-%s-%d", name, i)
			inst.profile = prof(name, profiler.RoleInference)
			inst.stages = model.ByName(name).PipelineStages
			inst.workers = 1
		default: // non-LLM inference
			name := infModels[i%len(infModels)]
			inst.fn = fmt.Sprintf("inf-%s-%d", name, i)
			inst.profile = prof(name, profiler.RoleInference)
			inst.workers = 1
		}
		out = append(out, inst)
	}
	return out
}

// lsEvent is an arrival or departure.
type lsEvent struct {
	at     sim.Time
	arrive bool
	idx    int
}

// runLargeScale replays the instance mix through one scheduler on the
// paper's 1,000-node cluster and samples occupancy/fragmentation over
// time.
func runLargeScale(mk func(*cluster.Cluster) sched.Scheduler, mix []lsInstance, horizon sim.Duration) (*metrics.Series, cluster.Stats, float64) {
	occ, stats, gpuSeconds, _ := runLargeScaleOn(mk, mix, horizon, 1000)
	return occ, stats, gpuSeconds
}

// runLargeScaleOn is runLargeScale with a configurable node count (the
// hyperscale driver runs 10,000 nodes); it additionally reports how many
// deployment requests were placed.
func runLargeScaleOn(mk func(*cluster.Cluster) sched.Scheduler, mix []lsInstance, horizon sim.Duration, nodes int) (*metrics.Series, cluster.Stats, float64, int) {
	r := runLargeScaleClu(mk, mix, horizon, cluster.Config{Nodes: nodes, GPUsPerNode: 4})
	return r.occ, r.stats, r.gpuSeconds, r.placed
}

// lsResult is one scheduler's large-scale replay outcome.
type lsResult struct {
	occ        *metrics.Series
	stats      cluster.Stats
	classes    []cluster.ClassStat
	gpuSeconds float64
	// capSeconds integrates capacity-weighted occupancy — the cost
	// measure that prices a fractional-capacity GPU at its fraction.
	// Equals gpuSeconds on homogeneous fleets.
	capSeconds float64
	placed     int
}

// runLargeScaleClu is the configurable-cluster core of the large-scale
// placement replays: the heterogeneity drivers pass mixed GPU classes,
// everything else a plain node count.
func runLargeScaleClu(mk func(*cluster.Cluster) sched.Scheduler, mix []lsInstance, horizon sim.Duration, cfg cluster.Config) lsResult {
	clu := cluster.New(cfg)
	s := mk(clu)
	var events []lsEvent
	for i, inst := range mix {
		events = append(events, lsEvent{inst.arrive, true, i})
		if inst.depart < horizon {
			events = append(events, lsEvent{inst.depart, false, i})
		}
	}
	// (at, idx) is a total order — no ties — so the unstable sort is
	// deterministic; SortFunc avoids sort.Slice's reflection-based swaps.
	slices.SortFunc(events, func(a, b lsEvent) int {
		if a.at != b.at {
			if a.at < b.at {
				return -1
			}
			return 1
		}
		return a.idx - b.idx
	})
	placed := map[int][]sched.Decision{}
	occ := metrics.NewSeries(s.Name() + "/occupied-gpus")
	placedCount := 0
	var gpuSeconds, capSeconds float64
	var lastAt sim.Time
	var lastOcc, lastCap float64
	record := func(at sim.Time) {
		cur := float64(clu.OccupiedCount())
		gpuSeconds += lastOcc * (at - lastAt).Seconds()
		capSeconds += lastCap * (at - lastAt).Seconds()
		lastAt, lastOcc, lastCap = at, cur, clu.OccupiedCapacity()
		occ.Add(at, cur)
	}
	for _, ev := range events {
		if ev.arrive {
			inst := mix[ev.idx]
			decs, err := s.Schedule(sched.Request{
				Func: inst.fn, Profile: inst.profile,
				Instances: inst.workers, GPUsPerInstance: inst.stages,
			})
			if err == nil {
				placed[ev.idx] = decs
				placedCount++
			}
		} else {
			for _, d := range placed[ev.idx] {
				d.Release()
			}
			delete(placed, ev.idx)
		}
		record(ev.at)
	}
	record(horizon)
	return lsResult{occ: occ, stats: clu.Snapshot(), classes: clu.ClassStats(),
		gpuSeconds: gpuSeconds, capSeconds: capSeconds, placed: placedCount}
}

// figure17Schedulers builds the three §5.5 comparison schedulers.
func figure17Schedulers() map[string]func(*cluster.Cluster) sched.Scheduler {
	return map[string]func(*cluster.Cluster) sched.Scheduler{
		"Exclusive":  func(c *cluster.Cluster) sched.Scheduler { return sched.NewExclusive(c) },
		"INFless+-l": func(c *cluster.Cluster) sched.Scheduler { return sched.NewINFlessL(c) },
		"Dilu":       func(c *cluster.Cluster) sched.Scheduler { return sched.NewDilu(c, sched.Options{}) },
	}
}

// Figure17 reproduces the 1,000-node / 3,200-instance simulation: GPU
// occupancy and SM/memory fragmentation per scheduler.
func Figure17(opts Options) *report.Report {
	opts = opts.withDefaults()
	rep := report.New("figure17", "Large-scale cluster simulation (Figure 17)")
	horizon := 3600 * sim.Second
	rng := sim.NewRNG(opts.Seed)
	mix := largeScaleMix(3200, horizon, rng)
	order := []string{"Exclusive", "INFless+-l", "Dilu"}
	scheds := figure17Schedulers()
	t := rep.AddTable(report.NewTable(
		"Figure 17. Occupancy and fragmentation at 3,200 instances",
		"scheduler", "peak GPUs", "SM frag", "mem frag", "GPU-hours", "cost vs Exclusive"))
	var exclusiveGPUh float64
	for _, name := range order {
		occ, stats, gpuSeconds := runLargeScale(scheds[name], mix, horizon)
		opts.Meter.AddVirtual(horizon)
		gpuH := gpuSeconds / 3600
		if name == "Exclusive" {
			exclusiveGPUh = gpuH
		}
		t.AddRow(name, occ.Max(), stats.SMFrag, stats.MemFrag, gpuH, gpuH/maxf(exclusiveGPUh, 1e-9))
		rep.AddSeries(occ.Downsample(120 * sim.Second))
	}
	rep.AddNote("paper: Dilu cuts cost 30%% vs Exclusive and 23%% vs INFless+-l at 3,200 instances with the lowest fragmentation")
	return rep
}

// Figure18 reproduces the sensitivity analyses: the oversubscription
// coefficient γ (placement-level) and RCKM MaxTokens (GPU-level).
func Figure18(opts Options) *report.Report {
	opts = opts.withDefaults()
	rep := report.New("figure18", "Sensitivity analyses (Figure 18)")

	// (a) Oversubscription coefficient sweep on the 3,200-instance mix.
	horizon := 3600 * sim.Second
	mix := largeScaleMix(3200, horizon, sim.NewRNG(opts.Seed))
	a := rep.AddTable(report.NewTable(
		"Figure 18(a). Oversubscription coefficient γ",
		"gamma", "peak GPUs", "SM frag", "mem frag"))
	for _, gamma := range []float64{1.0, 1.25, 1.5, 2.0, 2.5} {
		g := gamma
		occ, stats, _ := runLargeScale(func(c *cluster.Cluster) sched.Scheduler {
			return sched.NewDilu(c, sched.Options{Gamma: g})
		}, mix, horizon)
		opts.Meter.AddVirtual(horizon)
		a.AddRow(fmt.Sprintf("%.2f", gamma), occ.Max(), stats.SMFrag, stats.MemFrag)
	}

	// (b) MaxTokens sweep on a training-inference collocation.
	b := rep.AddTable(report.NewTable(
		"Figure 18(b). MaxTokens (× device capacity per 5 ms period)",
		"max tokens ×", "inference p95 ms", "inference SVR %", "train samples/s"))
	dur := opts.dur(60 * sim.Second)
	for _, mult := range []float64{0.25, 0.5, 1, 2, 4} {
		cfg := core.Config{
			Nodes: 1, GPUsPerNode: 1, Policy: "Dilu", Seed: opts.Seed,
			RCKM:  rckm.Config{MaxTokens: mult * 5000},
			Meter: opts.Meter,
		}
		sys := core.MustSystem(cfg)
		tj, err := sys.DeployTraining("t", "BERT-base", core.TrainOpts{Workers: 1, Pin: []int{0}})
		if err != nil {
			panic(err)
		}
		f, err := sys.DeployInference("i", "RoBERTa-large", core.InferOpts{
			Pin: []int{0}, Arrivals: workload.Gamma{RPS: 40, CV: 3},
		})
		if err != nil {
			panic(err)
		}
		sys.Run(dur)
		b.AddRow(fmt.Sprintf("%.2f", mult), f.Rec.P95().Millis(),
			f.Rec.ViolationRate()*100, tj.Throughput(sys.Eng.Now()))
	}
	rep.AddNote("paper: fragmentation gains diminish beyond γ=1.5; conservative MaxTokens starves collocated tasks while excessive values cause interference")
	return rep
}

// ScheduleBatch places n instances of a representative mix through a
// fresh Dilu scheduler on a 1,000-node cluster, for the §5.3 scheduling-
// overhead measurement (the paper reports 1.12 s for 3,200 decisions).
func ScheduleBatch(n int, seed int64) (placed int) {
	return ScheduleBatchOn(1000, n, seed)
}

// ScheduleBatchOn is ScheduleBatch on a cluster of the given node count
// (4 GPUs per node) — the hyperscale placement benchmark varies the
// cluster an order of magnitude around the paper's 1,000 nodes to show
// placement cost tracks feasible candidates, not inventory size.
func ScheduleBatchOn(nodes, n int, seed int64) (placed int) {
	clu := cluster.New(cluster.Config{Nodes: nodes, GPUsPerNode: 4})
	return ScheduleBatchWith(sched.NewDilu(clu, sched.Options{}), n, seed)
}

// ScheduleBatchWith replays the §5.5 instance mix through an arbitrary
// scheduler (the cmd/dilu-sched tool).
func ScheduleBatchWith(s sched.Scheduler, n int, seed int64) (placed int) {
	mix := largeScaleMix(n, 3600*sim.Second, sim.NewRNG(seed))
	for _, inst := range mix {
		if _, err := s.Schedule(sched.Request{
			Func: inst.fn, Profile: inst.profile,
			Instances: inst.workers, GPUsPerInstance: inst.stages,
		}); err == nil {
			placed++
		}
	}
	return placed
}
