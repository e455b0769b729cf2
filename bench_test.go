// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5). Each benchmark runs the corresponding experiment
// driver at a reduced scale and reports domain metrics alongside wall
// time; `cmd/dilu-bench -scale 1` produces the full-length numbers
// (README, "Reproducing the paper").
package dilu

import (
	"testing"

	"dilu/internal/core"
	"dilu/internal/experiments"
	"dilu/internal/harness"
	"dilu/internal/model"
	"dilu/internal/profiler"
	"dilu/internal/sim"
)

// benchOpts keeps benchmark iterations short while preserving every
// experiment's structure.
func benchOpts() experiments.Options { return experiments.Options{Scale: 0.1, Seed: 1} }

func runExperiment(b *testing.B, id string) {
	b.Helper()
	d, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rep := d.Run(benchOpts())
		if len(rep.Tables) == 0 && len(rep.Series) == 0 {
			b.Fatalf("%s: empty report", id)
		}
	}
}

// BenchmarkFigure2_Observations regenerates the Fig. 2(a,b) motivation
// measurements (over-provisioning, DDP idling, keep-alive waste).
func BenchmarkFigure2_Observations(b *testing.B) { runExperiment(b, "figure2") }

// BenchmarkFigure2_CoScalingToy regenerates the Fig. 2(c,d) toy
// co-scaling verification (Exclusive 4 GPUs vs collocated 3 GPUs).
func BenchmarkFigure2_CoScalingToy(b *testing.B) { runExperiment(b, "figure2cd") }

// BenchmarkTable2_ProfilingEfficiency regenerates the Table 2 search
// trial-count comparison.
func BenchmarkTable2_ProfilingEfficiency(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFigure4_TESurface regenerates the Fig. 4 throughput-efficacy
// surfaces with HGSS stars.
func BenchmarkFigure4_TESurface(b *testing.B) { runExperiment(b, "figure4") }

// BenchmarkFigure7_TrainInferCollocation regenerates the Fig. 7
// training-inference collocation comparison.
func BenchmarkFigure7_TrainInferCollocation(b *testing.B) { runExperiment(b, "figure7") }

// BenchmarkFigure8_InferInferCollocation regenerates the Fig. 8
// inference-inference collocation comparison.
func BenchmarkFigure8_InferInferCollocation(b *testing.B) { runExperiment(b, "figure8") }

// BenchmarkFigure9_TrainTrainCollocation regenerates the Fig. 9
// training-training aggregate-throughput comparison.
func BenchmarkFigure9_TrainTrainCollocation(b *testing.B) { runExperiment(b, "figure9") }

// BenchmarkFigure10_GammaCV regenerates the Fig. 10 p95-vs-CV sweep.
func BenchmarkFigure10_GammaCV(b *testing.B) { runExperiment(b, "figure10") }

// BenchmarkFigure11_Overhead regenerates the Fig. 11 vertical-scaling
// overhead study.
func BenchmarkFigure11_Overhead(b *testing.B) { runExperiment(b, "figure11") }

// BenchmarkFigure12_CoScalingTrace regenerates the Fig. 12 co-scaling
// trace analysis.
func BenchmarkFigure12_CoScalingTrace(b *testing.B) { runExperiment(b, "figure12") }

// BenchmarkTable3_HorizontalScaling regenerates the Table 3 CSC/SVR/SGT
// comparison.
func BenchmarkTable3_HorizontalScaling(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkFigure13_KernelIssuing regenerates the Fig. 13 kernel issuing
// traces.
func BenchmarkFigure13_KernelIssuing(b *testing.B) { runExperiment(b, "figure13") }

// BenchmarkFigure14_TotalKernels regenerates the Fig. 14 total kernel
// count comparison.
func BenchmarkFigure14_TotalKernels(b *testing.B) { runExperiment(b, "figure14") }

// BenchmarkFigure15_EndToEnd regenerates the Fig. 15 end-to-end and
// ablation comparison.
func BenchmarkFigure15_EndToEnd(b *testing.B) { runExperiment(b, "figure15") }

// BenchmarkFigure16_AggregateThroughput regenerates the Fig. 16 per-GPU
// aggregate throughput comparison.
func BenchmarkFigure16_AggregateThroughput(b *testing.B) { runExperiment(b, "figure16") }

// BenchmarkFigure17_LargeScale regenerates the Fig. 17 1,000-node /
// 3,200-instance placement simulation.
func BenchmarkFigure17_LargeScale(b *testing.B) { runExperiment(b, "figure17") }

// BenchmarkFigure18_Sensitivity regenerates the Fig. 18 oversubscription
// and MaxTokens sensitivity sweeps.
func BenchmarkFigure18_Sensitivity(b *testing.B) { runExperiment(b, "figure18") }

// BenchmarkSchedulerThroughput measures Algorithm 1 placing 3,200
// heterogeneous instances on a 1,000-node cluster — the §5.3 scheduling
// overhead the paper reports as 1.12 s.
func BenchmarkSchedulerThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if placed := experiments.ScheduleBatch(3200, 1); placed < 3000 {
			b.Fatalf("placed only %d instances", placed)
		}
	}
}

// BenchmarkHyperscalePlacement demonstrates that placement cost tracks
// *feasible candidates*, not cluster size: the same 3,200-instance
// batch on 4k vs 40k GPUs costs nearly the same (a full-scan scheduler
// pays ~10× there), and the full 32k-instance hyperscale batch grows
// with the work actually placed. Excluded from CI's bench-smoke via
// -short (the 32k case dominates suite wall time); run it with
// `make bench` or `go test -bench HyperscalePlacement -benchtime 1x .`.
func BenchmarkHyperscalePlacement(b *testing.B) {
	if testing.Short() {
		b.Skip("hyperscale sizes are excluded from the short/CI bench sweep")
	}
	for _, bc := range []struct {
		name        string
		nodes, inst int
	}{
		{"nodes=1000/inst=3200", 1000, 3200},
		{"nodes=10000/inst=3200", 10000, 3200},
		{"nodes=10000/inst=32000", 10000, 32000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if placed := experiments.ScheduleBatchOn(bc.nodes, bc.inst, 1); placed < bc.inst*9/10 {
					b.Fatalf("placed only %d/%d instances", placed, bc.inst)
				}
			}
		})
	}
}

// BenchmarkHGSS measures one hybrid-growth profiling search.
func BenchmarkHGSS(b *testing.B) {
	spec := model.ByName("RoBERTa-large")
	for i := 0; i < b.N; i++ {
		if r := profiler.HGSS(spec); r.IBS < 1 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkTrainingProfiler measures one binary-search profiling run.
func BenchmarkTrainingProfiler(b *testing.B) {
	spec := model.ByName("GPT2-large")
	for i := 0; i < b.N; i++ {
		if r := profiler.ProfileTraining(spec); r.Request <= 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkControllerAblation regenerates the RCKM controller ablation
// table (README, "Reproducing the paper") (not a paper artifact; quantifies the interpretation
// choices against literal Algorithm 2).
func BenchmarkControllerAblation(b *testing.B) { runExperiment(b, "ablation-controller") }

// BenchmarkSLOSweep runs the SLO pressure sweep over production-shaped
// workloads (bursty, diurnal, Pareto) across the three schedulers.
func BenchmarkSLOSweep(b *testing.B) { runExperiment(b, "slo_sweep") }

// BenchmarkTraceReplay replays the committed sample trace against the
// three schedulers with full SLO accounting.
func BenchmarkTraceReplay(b *testing.B) { runExperiment(b, "trace_replay") }

// BenchmarkTenantMix runs the multi-tenant Zipf-skew mix across the
// three schedulers.
func BenchmarkTenantMix(b *testing.B) { runExperiment(b, "tenant_mix") }

// BenchmarkHeteroMix runs the heterogeneous 70/30 fleet placement
// comparison (normalized-utilization scheduling on mixed capacities).
func BenchmarkHeteroMix(b *testing.B) { runExperiment(b, "hetero_mix") }

// BenchmarkChurnRecovery runs the failure-wave scenario: eviction,
// cold relaunch and request requeue under the three serving systems.
func BenchmarkChurnRecovery(b *testing.B) { runExperiment(b, "churn_recovery") }

// BenchmarkRollingDrain runs the zero-downtime upgrade sweep
// (make-before-break migration off draining nodes).
func BenchmarkRollingDrain(b *testing.B) { runExperiment(b, "rolling_drain") }

// BenchmarkGrayFailure runs the three-arm gray-failure comparison:
// fault injection, hedged dispatch, and health-monitor quarantine all
// on the hot path of the mitigated arm.
func BenchmarkGrayFailure(b *testing.B) { runExperiment(b, "gray_failure") }

// BenchmarkStragglerTail runs the hedged-dispatch tail study under a
// pinned slow-GPU schedule.
func BenchmarkStragglerTail(b *testing.B) { runExperiment(b, "straggler_tail") }

// BenchmarkColdStartStages runs the two-arm staged cold-start
// comparison: stage decomposition, per-stage violation attribution, and
// kernel-cache warm pools all on the hot path of the cached arm.
func BenchmarkColdStartStages(b *testing.B) { runExperiment(b, "coldstart_stages") }

// BenchmarkLLMContinuousBatch runs the two-arm token-level serving
// comparison: continuous batching, per-step KV-cache charge/release,
// and the preemption/refusal machinery all sit on the hot path.
func BenchmarkLLMContinuousBatch(b *testing.B) { runExperiment(b, "llm_continuous_batch") }

// BenchmarkPrewarmPolicy runs the reactive-vs-prewarm ramp comparison
// with the rate-trend prewarming step on the sampling path.
func BenchmarkPrewarmPolicy(b *testing.B) { runExperiment(b, "prewarm_policy") }

// BenchmarkGatewaySubmit measures the gateway hot path — tenant ledger
// update, admission decision, dispatch into the serving plane — for
// submits that an always-full token bucket admits, on a warm function
// with a fixed two-instance pool. Each op is a batch of 10k submits so
// the single-iteration bench-gate run measures above the timer noise
// floor; divide ns/op by submitsPerOp for the per-submit cost. Every op
// submits into a freshly built system (built with the timer stopped),
// so no op inherits the queues an earlier op left behind.
func BenchmarkGatewaySubmit(b *testing.B) {
	const submitsPerOp = 10_000
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		sys := core.MustSystem(core.Config{
			Nodes: 1, GPUsPerNode: 4, Seed: 1,
			Admission: core.NewTokenBucket(1e12, 1e12),
		})
		if _, err := sys.DeployInference("gw", "ResNet152", core.InferOpts{Instances: 2, NoScaler: true, Tenant: "bench"}); err != nil {
			b.Fatal(err)
		}
		sys.Run(sim.Second)
		now := sys.Eng.Now()
		b.StartTimer()
		for j := 0; j < submitsPerOp; j++ {
			if !sys.Submit(now, core.Request{Func: "gw", Tenant: "bench"}) {
				b.Fatal("bench bucket shed a request")
			}
		}
		b.StopTimer()
	}
}

// benchSuite drains the quick-tier drivers through the harness worker
// pool at the given parallelism; comparing the serial and all-core
// variants measures the suite-level speedup the harness buys.
func benchSuite(b *testing.B, parallel int) {
	b.Helper()
	drivers := experiments.ByTier(experiments.TierQuick)
	jobs := harness.Jobs(drivers, nil, 0.1)
	for i := 0; i < b.N; i++ {
		out := harness.Run(harness.Config{Suite: "bench", Parallel: parallel}, jobs)
		if out.Failed() {
			b.Fatalf("suite failed: %s", out.Manifest.JSON())
		}
	}
}

// BenchmarkSuiteQuickSerial runs the quick-tier suite on one worker.
func BenchmarkSuiteQuickSerial(b *testing.B) { benchSuite(b, 1) }

// BenchmarkSuiteQuickParallel runs the quick-tier suite on all cores.
func BenchmarkSuiteQuickParallel(b *testing.B) { benchSuite(b, 0) }
