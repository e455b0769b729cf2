package experiments

import (
	"fmt"

	"dilu/internal/core"
	"dilu/internal/metrics"
	"dilu/internal/model"
	"dilu/internal/profiler"
	"dilu/internal/report"
	"dilu/internal/sim"
	"dilu/internal/workload"
)

// collocCase is one training-inference collocation scenario of Figure 7.
// Pairings follow the paper's model set (README, "Reproducing the paper").
type collocCase struct {
	label      string
	infModel   string
	infRPS     float64
	infStages  int // >1 shards the inference over GPU fragments
	trainModel string
	trainWork  int // training workers
	gpus       int // GPUs shared by the collocated deployment
}

var figure7Cases = []collocCase{
	{label: "VGG19-inf + ResNet152-train", infModel: "VGG19", infRPS: 35, infStages: 1, trainModel: "ResNet152", trainWork: 1, gpus: 1},
	{label: "RoBERTa-inf + BERT-train", infModel: "RoBERTa-large", infRPS: 20, infStages: 1, trainModel: "BERT-base", trainWork: 1, gpus: 1},
	{label: "GPT2-inf + RoBERTa-train", infModel: "GPT2-large", infRPS: 10, infStages: 1, trainModel: "RoBERTa-large", trainWork: 1, gpus: 1},
	{label: "LLaMA2-inf(4frag) + BERT-train", infModel: "LLaMA2-7B", infRPS: 3, infStages: 4, trainModel: "BERT-base", trainWork: 4, gpus: 4},
}

// runColloc executes one collocation case under one baseline and returns
// the inference recorder, training throughput, and GPUs used.
func runColloc(c collocCase, baseline string, arr workload.Arrivals, dur sim.Duration, opts Options) (rec *metrics.LatencyRecorder, trainThr float64, gpus int) {
	pin := make([]int, c.gpus)
	for i := range pin {
		pin[i] = i
	}
	if baseline == "Exclusive" {
		// Inference and training on dedicated GPUs.
		sys := systemFor("Exclusive", 1, c.gpus+c.trainWork, opts)
		tj, err := sys.DeployTraining(c.trainModel+"-t", c.trainModel, core.TrainOpts{
			Workers: c.trainWork, Pin: seqInts(c.gpus, c.trainWork),
		})
		if err != nil {
			panic(err)
		}
		stages := 1 // exclusive LLM serving gets a whole GPU
		f, err := sys.DeployInference(c.infModel+"-i", c.infModel, core.InferOpts{
			Stages: stages, Pin: pinFor(stages, 0), Arrivals: arr,
		})
		if err != nil {
			panic(err)
		}
		sys.Run(dur)
		return f.Rec, tj.Throughput(sys.Eng.Now()), sys.Clu.OccupiedCount()
	}
	sys := systemFor(baseline, 1, c.gpus, opts)
	tj, err := sys.DeployTraining(c.trainModel+"-t", c.trainModel, core.TrainOpts{
		Workers: c.trainWork, Pin: seqInts(0, c.trainWork),
	})
	if err != nil {
		panic(err)
	}
	f, err := sys.DeployInference(c.infModel+"-i", c.infModel, core.InferOpts{
		Stages: c.infStages, Pin: pin, Arrivals: arr,
	})
	if err != nil {
		panic(err)
	}
	sys.Run(dur)
	return f.Rec, tj.Throughput(sys.Eng.Now()), sys.Clu.OccupiedCount()
}

func seqInts(start, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = start + i
	}
	return out
}

func pinFor(stages, first int) []int { return seqInts(first, stages) }

// Figure7 reproduces training-inference collocation performance: p50/p95
// inference latency and collocated training throughput per baseline.
func Figure7(opts Options) *report.Report {
	opts = opts.withDefaults()
	rep := report.New("figure7", "Training-inference collocation (Figure 7)")
	dur := opts.dur(90 * sim.Second)
	for _, c := range figure7Cases {
		lat := rep.AddTable(report.NewTable(
			fmt.Sprintf("Figure 7(a). %s — inference latency (ms)", c.label),
			"baseline", "p50", "p95", "SVR %", "GPUs"))
		thr := rep.AddTable(report.NewTable(
			fmt.Sprintf("Figure 7(b). %s — training throughput (normalized to Exclusive)", c.label),
			"baseline", "samples/s", "normalized"))
		var exclThr float64
		for _, b := range gpuBaselines {
			arr := workload.Poisson{RPS: c.infRPS}
			rec, tthr, gpus := runColloc(c, b, arr, dur, opts)
			if b == "Exclusive" {
				exclThr = tthr
			}
			lat.AddRow(b, rec.P50().Millis(), rec.P95().Millis(), rec.ViolationRate()*100, gpus)
			thr.AddRow(b, tthr, tthr/maxf(exclThr, 1e-9))
		}
	}
	rep.AddNote("paper: Dilu ≈1.24×/1.28× Exclusive p50/p95 with 97.2%% training throughput on half the GPUs; TGS nearly stops training; MPS-r inflates tails")
	return rep
}

// figure8Cases are inference-inference pairs.
type infPair struct {
	label    string
	a, b     string
	rpsA     float64 // Poisson rates (Fig. 8(b))
	rpsB     float64
	burstA   float64 // bursty base rates (Fig. 8(a))
	burstB   float64
	scale    float64 // burst scale factor
	stages   int
	gpuCount int
}

var figure8Cases = []infPair{
	{label: "ResNet152 + VGG19", a: "ResNet152", b: "VGG19", rpsA: 20, rpsB: 20, burstA: 10, burstB: 10, scale: 4, stages: 1, gpuCount: 1},
	{label: "RoBERTa + BERT", a: "RoBERTa-large", b: "BERT-base", rpsA: 30, rpsB: 30, burstA: 12, burstB: 12, scale: 6, stages: 1, gpuCount: 1},
	{label: "GPT2 + RoBERTa", a: "GPT2-large", b: "RoBERTa-large", rpsA: 20, rpsB: 20, burstA: 8, burstB: 8, scale: 6, stages: 1, gpuCount: 1},
	{label: "LLaMA2 + ChatGLM3 (4frag)", a: "LLaMA2-7B", b: "ChatGLM3-6B", rpsA: 3, rpsB: 3, burstA: 1, burstB: 1, scale: 4, stages: 4, gpuCount: 4},
}

func runInfPair(c infPair, baseline string, arrA, arrB workload.Arrivals, dur sim.Duration, opts Options) (ra, rb *metrics.LatencyRecorder) {
	if baseline == "Exclusive" {
		sys := systemFor("Exclusive", 1, 2*c.gpuCount, opts)
		fa, err := sys.DeployInference(c.a+"-a", c.a, core.InferOpts{Stages: 1, Pin: []int{0}, Arrivals: arrA})
		if err != nil {
			panic(err)
		}
		fb, err := sys.DeployInference(c.b+"-b", c.b, core.InferOpts{Stages: 1, Pin: []int{c.gpuCount}, Arrivals: arrB})
		if err != nil {
			panic(err)
		}
		sys.Run(dur)
		return fa.Rec, fb.Rec
	}
	sys := systemFor(baseline, 1, c.gpuCount, opts)
	pin := seqInts(0, c.gpuCount)
	stA, stB := c.stages, c.stages
	fa, err := sys.DeployInference(c.a+"-a", c.a, core.InferOpts{Stages: stA, Pin: pin[:boundStages(stA, c.gpuCount)], Arrivals: arrA})
	if err != nil {
		panic(err)
	}
	fb, err := sys.DeployInference(c.b+"-b", c.b, core.InferOpts{Stages: stB, Pin: pin[:boundStages(stB, c.gpuCount)], Arrivals: arrB})
	if err != nil {
		panic(err)
	}
	sys.Run(dur)
	return fa.Rec, fb.Rec
}

func boundStages(stages, gpus int) int {
	if stages > gpus {
		return gpus
	}
	return stages
}

// Figure8 reproduces inference-inference collocation under bursty and
// Poisson workloads.
func Figure8(opts Options) *report.Report {
	opts = opts.withDefaults()
	rep := report.New("figure8", "Inference-inference collocation (Figure 8)")
	dur := opts.dur(120 * sim.Second)
	for _, c := range figure8Cases {
		burst := rep.AddTable(report.NewTable(
			fmt.Sprintf("Figure 8(a). %s — bursty (scale %.0f), mean of pair (ms)", c.label, c.scale),
			"baseline", "p50", "p95", "SVR %"))
		pois := rep.AddTable(report.NewTable(
			fmt.Sprintf("Figure 8(b). %s — Poisson, mean of pair (ms)", c.label),
			"baseline", "p50", "p95", "SVR %"))
		for _, b := range gpuBaselines {
			ba := workload.Bursty{BaseRPS: c.burstA, Scale: c.scale, BurstDur: 15 * sim.Second, Quiet: 45 * sim.Second}
			bb := workload.Bursty{BaseRPS: c.burstB, Scale: c.scale, BurstDur: 15 * sim.Second, Quiet: 45 * sim.Second}
			ra, rb := runInfPair(c, b, ba, bb, dur, opts)
			burst.AddRow(b,
				(ra.P50().Millis()+rb.P50().Millis())/2,
				(ra.P95().Millis()+rb.P95().Millis())/2,
				(ra.ViolationRate()+rb.ViolationRate())/2*100)

			ra, rb = runInfPair(c, b, workload.Poisson{RPS: c.rpsA}, workload.Poisson{RPS: c.rpsB}, dur, opts)
			pois.AddRow(b,
				(ra.P50().Millis()+rb.P50().Millis())/2,
				(ra.P95().Millis()+rb.P95().Millis())/2,
				(ra.ViolationRate()+rb.ViolationRate())/2*100)
		}
	}
	rep.AddNote("paper: TGS p50/p95 reach 442×/405× Dilu (low-priority starvation); Dilu cuts mean p95 ~25%% vs MPS-l under bursts")
	return rep
}

// Figure9 reproduces training-training collocation: aggregate normalized
// throughput per GPU versus Exclusive.
func Figure9(opts Options) *report.Report {
	opts = opts.withDefaults()
	rep := report.New("figure9", "Training-training collocation (Figure 9)")
	pairs := [][2]string{
		{"BERT-base", "RoBERTa-large"},
		{"ResNet152", "VGG19"},
		{"GPT2-large", "BERT-base"},
		{"RoBERTa-large", "VGG19"},
	}
	dur := opts.dur(60 * sim.Second)
	t := rep.AddTable(report.NewTable(
		"Figure 9. Aggregate normalized training throughput per GPU (Exclusive = 1.0)",
		"pair", "Dilu", "MPS-l", "MPS-r", "TGS"))
	for _, pair := range pairs {
		row := []interface{}{pair[0] + " + " + pair[1]}
		for _, b := range []string{"Dilu", "MPS-l", "MPS-r", "TGS"} {
			sys := systemFor(b, 1, 1, opts)
			a, err := sys.DeployTraining("a", pair[0], core.TrainOpts{Workers: 1, Pin: []int{0}})
			if err != nil {
				panic(err)
			}
			bj, err := sys.DeployTraining("b", pair[1], core.TrainOpts{Workers: 1, Pin: []int{0}})
			if err != nil {
				panic(err)
			}
			sys.Run(dur)
			// Normalized per GPU: the collocated pair uses 1 GPU, the
			// Exclusive reference 2.
			agg := a.Throughput(sys.Eng.Now())/a.Spec.TrainThroughput(1) +
				bj.Throughput(sys.Eng.Now())/bj.Spec.TrainThroughput(1)
			row = append(row, agg) // exclusive per-GPU = (1+1)/2 = 1.0
		}
		t.AddRow(row...)
	}
	rep.AddNote("paper: Dilu averages 176%% of Exclusive's per-GPU aggregate; 10-14%% over MPS-l, 3-14%% over MPS-r")
	return rep
}

// Figure10 reproduces the fast-adaptivity study: p95 latency across
// Gamma-distribution CVs for two collocation cases.
func Figure10(opts Options) *report.Report {
	opts = opts.withDefaults()
	rep := report.New("figure10", "Inference p95 under Gamma workloads (Figure 10)")
	cases := []struct {
		label      string
		infModel   string
		rps        float64
		trainModel string
	}{
		{"RoBERTa-large @64 + BERT-base train", "RoBERTa-large", 64, "BERT-base"},
		{"GPT2-large @48 + RoBERTa-large train", "GPT2-large", 48, "RoBERTa-large"},
	}
	dur := opts.dur(90 * sim.Second)
	baselines := []string{"Exclusive", "Dilu", "MPS-r", "MPS-l"}
	for _, c := range cases {
		t := rep.AddTable(report.NewTable(
			fmt.Sprintf("Figure 10. %s — p95 latency (ms) by CV", c.label),
			"CV", "Exclusive", "Dilu", "MPS-r", "MPS-l"))
		for _, cv := range []float64{0.001, 1, 2, 3, 4, 5, 6} {
			row := []interface{}{fmt.Sprintf("%g", cv)}
			for _, b := range baselines {
				arr := workload.Gamma{RPS: c.rps, CV: cv}
				var rec *metrics.LatencyRecorder
				if b == "Exclusive" {
					sys := systemFor("Exclusive", 1, 2, opts)
					_, err := sys.DeployTraining("t", c.trainModel, core.TrainOpts{Workers: 1, Pin: []int{1}})
					if err != nil {
						panic(err)
					}
					f, err := sys.DeployInference("i", c.infModel, core.InferOpts{Pin: []int{0}, Arrivals: arr})
					if err != nil {
						panic(err)
					}
					sys.Run(dur)
					rec = f.Rec
				} else {
					sys := systemFor(b, 1, 1, opts)
					_, err := sys.DeployTraining("t", c.trainModel, core.TrainOpts{Workers: 1, Pin: []int{0}})
					if err != nil {
						panic(err)
					}
					f, err := sys.DeployInference("i", c.infModel, core.InferOpts{Pin: []int{0}, Arrivals: arr})
					if err != nil {
						panic(err)
					}
					sys.Run(dur)
					rec = f.Rec
				}
				row = append(row, rec.P95().Millis())
			}
			t.AddRow(row...)
		}
	}
	rep.AddNote("paper: at CV=6, MPS-l and MPS-r p95 are 2.08× and 4.76× Dilu; Dilu stays within ~9%% of Exclusive")
	return rep
}

// Figure11 reproduces the vertical-scaling overhead study: managed vs
// unmanaged throughput/latency.
func Figure11(opts Options) *report.Report {
	opts = opts.withDefaults()
	rep := report.New("figure11", "Vertical scaling overhead (Figure 11)")
	dur := opts.dur(40 * sim.Second)
	a := rep.AddTable(report.NewTable(
		"Figure 11(a). Training throughput with RCKM management (normalized, full quota)",
		"model", "without Dilu", "with Dilu", "normalized"))
	full := 1.0
	for _, name := range []string{"BERT-base", "RoBERTa-large", "GPT2-large", "LLaMA2-7B"} {
		run := func(policy string) float64 {
			sys := systemFor(policy, 1, 1, opts)
			p := trainFullProfile(name)
			tj, err := sys.DeployTraining("t", name, core.TrainOpts{Workers: 1, Pin: []int{0}, Profile: &p})
			if err != nil {
				panic(err)
			}
			sys.Run(dur)
			return tj.Throughput(sys.Eng.Now())
		}
		without := run("Exclusive")
		with := run("Dilu")
		a.AddRow(name, without, with, with/maxf(without, 1e-9))
		_ = full
	}
	b := rep.AddTable(report.NewTable(
		"Figure 11(b). Inference latency vs managed instance count (normalized)",
		"# instances", "without Dilu", "with Dilu", "normalized"))
	for _, n := range []int{1, 2, 4, 8} {
		run := func(policy string) float64 {
			sys := systemFor(policy, 1, 1, opts)
			var first *core.Function
			for i := 0; i < n; i++ {
				// Equal shares isolate management overhead from quota
				// effects: both systems grant each instance 1/n.
				p := profiler.For(model.ByName("BERT-base"), profiler.RoleInference)
				p.SMReq, p.SMLim = 1/float64(n), 1/float64(n)
				f, err := sys.DeployInference(fmt.Sprintf("f%d", i), "BERT-base", core.InferOpts{
					Pin: []int{0}, Profile: &p,
					Arrivals: workload.Poisson{RPS: 2},
				})
				if err != nil {
					panic(err)
				}
				if first == nil {
					first = f
				}
			}
			sys.Run(dur)
			return first.Rec.Mean().Millis()
		}
		without := run("MPS-l")
		with := run("Dilu")
		b.AddRow(n, without, with, with/maxf(without, 1e-9))
	}
	rep.AddNote("paper: <1%% training loss, ~1.00 normalized inference latency (our substrate adds no interception cost; see README \"Reproducing the paper\")")
	return rep
}

// trainFullProfile profiles a model and forces full quotas (overhead
// isolation: both systems grant the whole GPU).
func trainFullProfile(name string) profiler.Profile {
	p := profiler.For(model.ByName(name), profiler.RoleTraining)
	p.SMReq, p.SMLim = 1, 1
	return p
}
