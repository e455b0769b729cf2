package experiments

import (
	"fmt"

	"dilu/internal/report"
)

// Tier classifies a driver by how expensive a full-scale run is. The
// harness and the test suite use it to build filtered subsets: the short
// test tier runs quick and standard drivers only, while `dilu-bench
// -tier quick` gives a sub-second smoke pass over the suite.
type Tier string

const (
	// TierQuick drivers finish in well under a second at Scale 0.1.
	TierQuick Tier = "quick"
	// TierStandard drivers take a few seconds at Scale 0.1.
	TierStandard Tier = "standard"
	// TierSlow drivers dominate suite wall time (large sweeps, many
	// baselines); they are skipped by `go test -short`.
	TierSlow Tier = "slow"
)

// Tiers lists the valid tiers from cheapest to most expensive.
func Tiers() []Tier { return []Tier{TierQuick, TierStandard, TierSlow} }

// Valid reports whether t is a known tier.
func (t Tier) Valid() bool {
	return t == TierQuick || t == TierStandard || t == TierSlow
}

// Aim names what a driver measures. A figure or table driver
// reproduces the paper; every extra names one of the other three aims,
// and a driver that measures none of them is a deletion candidate.
type Aim string

const (
	// AimPaper drivers regenerate a figure or table of the paper.
	AimPaper Aim = "paper"
	// AimPerformance drivers measure the simulator's own cost at scale.
	AimPerformance Aim = "performance"
	// AimCorrectness drivers exercise an input, a failure mode or a
	// policy whose behaviour the paper's drivers never reach.
	AimCorrectness Aim = "correctness"
	// AimObservability drivers break a result down by cause: SLO
	// pressure, tenants, cold-start stages, prewarming.
	AimObservability Aim = "observability"
)

// Driver regenerates one paper artifact or one extra measurement.
type Driver struct {
	ID    string // e.g. "table2", "figure7"
	Paper string // paper artifact reference
	Tier  Tier   // cost tier: quick, standard, slow
	Aim   Aim    // what the driver measures; never written to the manifest
	Run   func(Options) *report.Report
}

// All returns every experiment driver in paper order.
func All() []Driver {
	return []Driver{
		{"figure2", "Figure 2(a,b) — fragmentation observations", TierQuick, AimPaper, Figure2},
		{"figure2cd", "Figure 2(c,d) — toy co-scaling verification", TierSlow, AimPaper, Figure2cd},
		{"table2", "Table 2 — profiling efficiency", TierQuick, AimPaper, Table2},
		{"figure4", "Figure 4 — TE surfaces and HGSS stars", TierQuick, AimPaper, Figure4},
		{"figure7", "Figure 7 — training-inference collocation", TierStandard, AimPaper, Figure7},
		{"figure8", "Figure 8 — inference-inference collocation", TierSlow, AimPaper, Figure8},
		{"figure9", "Figure 9 — training-training collocation", TierQuick, AimPaper, Figure9},
		{"figure10", "Figure 10 — Gamma CV sweep", TierSlow, AimPaper, Figure10},
		{"figure11", "Figure 11 — vertical scaling overhead", TierQuick, AimPaper, Figure11},
		{"figure12", "Figure 12 — co-scaling trace analysis", TierStandard, AimPaper, Figure12},
		{"table3", "Table 3 — horizontal scaling (CSC/SVR/SGT)", TierStandard, AimPaper, Table3},
		{"figure13", "Figure 13 — kernel issuing traces", TierQuick, AimPaper, Figure13},
		{"figure14", "Figure 14 — total kernel counts", TierQuick, AimPaper, Figure14},
		{"figure15", "Figure 15 — end-to-end and ablations", TierSlow, AimPaper, Figure15},
		{"figure16", "Figure 16 — aggregate throughput", TierSlow, AimPaper, Figure16},
		{"figure17", "Figure 17 — large-scale simulation", TierStandard, AimPaper, Figure17},
		{"figure18", "Figure 18 — sensitivity analyses", TierSlow, AimPaper, Figure18},
		{"ablation-controller", "RCKM controller ablations — README \"Reproducing the paper\" (extra)", TierStandard, AimCorrectness, ControllerAblation},
		{"slo_sweep", "SLO pressure sweep over production-shaped workloads (extra)", TierStandard, AimObservability, SLOSweep},
		{"trace_replay", "Committed sample-trace replay with SLO accounting (extra)", TierStandard, AimCorrectness, TraceReplay},
		{"tenant_mix", "Multi-tenant Zipf mix across schedulers (extra)", TierStandard, AimObservability, TenantMixStudy},
		{"hyperscale", "Hyperscale placement — 40k GPUs / 32k instances (extra)", TierSlow, AimPerformance, Hyperscale},
		{"hyperscale_max", "Hyperscale ceiling — 250k GPUs / 200k instances (extra)", TierSlow, AimPerformance, HyperscaleMax},
		{"hetero_mix", "Heterogeneous 70/30 fleet placement comparison (extra)", TierStandard, AimCorrectness, HeteroMix},
		{"churn_recovery", "SLO attainment through a node-failure wave (extra)", TierStandard, AimCorrectness, ChurnRecovery},
		{"rolling_drain", "Zero-downtime rolling drain sweep (extra)", TierStandard, AimCorrectness, RollingDrain},
		{"overload_shed", "Admission policy vs SLO goodput at 2× capacity (extra)", TierQuick, AimCorrectness, OverloadShed},
		{"tenant_fairness", "DRF fair-share admission under a tenant flood (extra)", TierQuick, AimCorrectness, TenantFairness},
		{"gray_failure", "Hedge/quarantine vs adversarial slowdown+error schedule (extra)", TierQuick, AimCorrectness, GrayFailure},
		{"straggler_tail", "Hedged dispatch vs no hedging under slow-GPU population (extra)", TierStandard, AimCorrectness, StragglerTail},
		{"coldstart_stages", "Staged cold-start attribution + kernel-cache warm pools (extra)", TierQuick, AimObservability, ColdStartStages},
		{"prewarm_policy", "Predictive prewarming vs reactive scaling on a demand ramp (extra)", TierStandard, AimObservability, PrewarmPolicy},
		{"llm_continuous_batch", "Continuous batching vs run-to-completion on a Zipf token mix (extra)", TierQuick, AimCorrectness, LLMContinuousBatch},
		{"llm_kvcache_pressure", "KV-cache pressure under memory-bound decode (extra)", TierQuick, AimCorrectness, LLMKVCachePressure},
	}
}

// ByID returns one driver.
func ByID(id string) (Driver, error) {
	for _, d := range All() {
		if d.ID == id {
			return d, nil
		}
	}
	return Driver{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// ByTier returns the drivers in the given tiers, preserving paper order.
func ByTier(tiers ...Tier) []Driver {
	want := map[Tier]bool{}
	for _, t := range tiers {
		want[t] = true
	}
	var out []Driver
	for _, d := range All() {
		if want[d.Tier] {
			out = append(out, d)
		}
	}
	return out
}
