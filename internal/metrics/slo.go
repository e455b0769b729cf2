// SLO accounting: per-function targets rolled up into the
// violation/goodput summary the harness manifest records. The paper
// reports SVR alone; serving systems evaluated against production
// arrival patterns (HAS-GPU, DeepServe) additionally track percentile
// attainment, goodput, and how much of the violation mass the cold-start
// path contributes — which is what this layer adds.
package metrics

import (
	"fmt"

	"dilu/internal/sim"
)

// SLOFuncStats is the per-function SLO accounting of one run.
type SLOFuncStats struct {
	Func string `json:"func"`
	// Tenant is the function's deployment tenant; omitted for the default
	// tenant so single-tenant manifests keep their pre-tenant bytes.
	Tenant    string  `json:"tenant,omitempty"`
	SLOMillis float64 `json:"slo_ms"`
	Requests  int64   `json:"requests"`
	// Violations counts requests over the SLO; ColdStartViolations is
	// the subset with a launch stage on the critical path.
	Violations          int64 `json:"violations"`
	ColdStartViolations int64 `json:"cold_start_violations"`
	// Per-stage attribution: which launch phase was on the violating
	// request's critical path, with waits that had no launch on the path
	// split out as warm queueing.
	ImageInitViolations int64 `json:"image_init_violations"`
	ModelLoadViolations int64 `json:"model_load_violations"`
	KernelJITViolations int64 `json:"kernel_jit_violations"`
	WarmQueueViolations int64 `json:"warm_queue_violations"`
	// GoodputRPS is SLO-met requests per second of horizon.
	GoodputRPS float64 `json:"goodput_rps"`
	P95Millis  float64 `json:"p95_ms"`
	P99Millis  float64 `json:"p99_ms"`
	// AttainedP95/P99 report whether the percentile latency met the SLO
	// (vacuously false with no samples, true with no SLO configured).
	AttainedP95 bool `json:"attained_p95"`
	AttainedP99 bool `json:"attained_p99"`
}

// ViolationRate returns the function's SVR in [0,1].
func (s SLOFuncStats) ViolationRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Violations) / float64(s.Requests)
}

// TenantSLOStats is one tenant's row in the gateway admission roll-up.
type TenantSLOStats struct {
	Tenant    string `json:"tenant"`
	Submitted int64  `json:"submitted"`
	Admitted  int64  `json:"admitted"`
	Shed      int64  `json:"shed"`
	Served    int64  `json:"served"`
	// Hedges counts speculative duplicates charged to the tenant's
	// hedge budget; omitted when hedging never acted for the tenant.
	Hedges int64 `json:"hedges,omitempty"`
	// GoodputRPS is the tenant's SLO-met request rate over the horizon.
	GoodputRPS float64 `json:"goodput_rps"`
}

// GatewaySLO is the admission-layer block of a run summary: how many
// requests the gateway saw, admitted, and shed — in aggregate and per
// tenant.
type GatewaySLO struct {
	Policy    string           `json:"policy,omitempty"`
	Submitted int64            `json:"submitted"`
	Admitted  int64            `json:"admitted"`
	Shed      int64            `json:"shed"`
	Tenants   []TenantSLOStats `json:"tenants,omitempty"`
}

// ShedRate returns the fraction of submitted requests shed, in [0,1].
func (g *GatewaySLO) ShedRate() float64 {
	if g.Submitted == 0 {
		return 0
	}
	return float64(g.Shed) / float64(g.Submitted)
}

// ResilienceSLO is the gray-failure block of a run summary: injected
// fault events and per-cause mitigation attribution (hedges, hedge
// wins, quarantine migrations). Always present; a run without faults
// or mitigations reads all zeros.
type ResilienceSLO struct {
	SlowEvents           int64 `json:"slow_events"`
	ErrorEvents          int64 `json:"error_events"`
	AbortedBatches       int64 `json:"aborted_batches"`
	AbortedRequests      int64 `json:"aborted_requests"`
	Hedges               int64 `json:"hedges"`
	HedgeWins            int64 `json:"hedge_wins"`
	HedgeDiscards        int64 `json:"hedge_discards"`
	Quarantines          int64 `json:"quarantines"`
	Readmits             int64 `json:"readmits"`
	QuarantineMigrations int64 `json:"quarantine_migrations"`
}

// ColdStartSLO is the staged cold-start block of a run summary:
// per-stage violation attribution summed over functions, warm-queue
// waits split out, kernel-cache effectiveness, and the cold launches
// paid. Predictive prewarming is a scaler policy (scaler.Prewarm), so
// its launches are ordinary cold launches here.
type ColdStartSLO struct {
	ImageInitViolations int64 `json:"image_init_violations"`
	ModelLoadViolations int64 `json:"model_load_violations"`
	KernelJITViolations int64 `json:"kernel_jit_violations"`
	WarmQueueViolations int64 `json:"warm_queue_violations"`
	// KernelCacheHits/Misses count cold launches that found (or missed)
	// every target node's kernel cache warm; a hit shrinks the JIT stage.
	KernelCacheHits   int64 `json:"kernel_cache_hits"`
	KernelCacheMisses int64 `json:"kernel_cache_misses"`
	// ColdLaunches / ColdMillisTotal are the run's cold-launch count and
	// total cold-start wall clock actually paid (cache shortening
	// included), so drivers can report mean effective cold-start time.
	ColdLaunches    int64   `json:"cold_launches"`
	ColdMillisTotal float64 `json:"cold_ms_total"`
}

// MeanColdMillis returns the mean effective cold-start duration paid
// per cold launch, in milliseconds.
func (c *ColdStartSLO) MeanColdMillis() float64 {
	if c.ColdLaunches == 0 {
		return 0
	}
	return c.ColdMillisTotal / float64(c.ColdLaunches)
}

// SLOSummary rolls per-function SLO accounting up to one run.
type SLOSummary struct {
	Funcs []SLOFuncStats `json:"funcs,omitempty"`

	// Gateway is the admission roll-up.
	Gateway GatewaySLO `json:"gateway"`

	// Resilience is the gray-failure/mitigation roll-up.
	Resilience ResilienceSLO `json:"resilience"`

	// ColdStart is the staged cold-start roll-up.
	ColdStart ColdStartSLO `json:"cold_start"`

	// LLM is the token-level serving roll-up; nil for runs that never
	// deployed a token-level function.
	LLM *LLMSLO `json:"llm,omitempty"`

	Requests            int64 `json:"requests"`
	Violations          int64 `json:"violations"`
	ColdStartViolations int64 `json:"cold_start_violations"`
	// GoodputRPS is the aggregate SLO-met request rate.
	GoodputRPS float64 `json:"goodput_rps"`
	// P95Attainment / P99Attainment are the fractions of functions whose
	// p95/p99 latency met their SLO.
	P95Attainment float64 `json:"p95_attainment"`
	P99Attainment float64 `json:"p99_attainment"`
}

// ViolationRate returns the aggregate SVR in [0,1].
func (s *SLOSummary) ViolationRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Violations) / float64(s.Requests)
}

// ColdStartShare returns the fraction of violations with a launch stage
// on the violating request's critical path.
func (s *SLOSummary) ColdStartShare() float64 {
	if s.Violations == 0 {
		return 0
	}
	return float64(s.ColdStartViolations) / float64(s.Violations)
}

func (s *SLOSummary) String() string {
	return fmt.Sprintf("slo: %d reqs svr=%.2f%% cold-share=%.0f%% goodput=%.1f rps p95-attain=%.0f%%",
		s.Requests, s.ViolationRate()*100, s.ColdStartShare()*100, s.GoodputRPS, s.P95Attainment*100)
}

// SummarizeSLO builds the summary over a run's latency recorders (one
// per function, in the order given — callers pass deployment order so
// the summary is deterministic). The horizon converts goodput counts to
// rates.
func SummarizeSLO(horizon sim.Duration, recs ...*LatencyRecorder) *SLOSummary {
	sum := &SLOSummary{}
	seconds := horizon.Seconds()
	attained95, attained99 := 0, 0
	for _, r := range recs {
		if r == nil {
			continue
		}
		slo := r.SLO()
		st := SLOFuncStats{
			Func:                r.Name(),
			Tenant:              r.Tenant(),
			SLOMillis:           slo.Millis(),
			Requests:            int64(r.Count()),
			Violations:          int64(r.Violations()),
			ColdStartViolations: int64(r.ColdStartViolations()),
			ImageInitViolations: int64(r.StageViolations(ColdImageInit)),
			ModelLoadViolations: int64(r.StageViolations(ColdModelLoad)),
			KernelJITViolations: int64(r.StageViolations(ColdKernelJIT)),
			WarmQueueViolations: int64(r.WarmQueueViolations()),
			P95Millis:           r.P95().Millis(),
			P99Millis:           r.P99().Millis(),
		}
		if seconds > 0 {
			st.GoodputRPS = float64(r.Goodput()) / seconds
		}
		if r.Count() > 0 {
			st.AttainedP95 = slo <= 0 || r.P95() <= slo
			st.AttainedP99 = slo <= 0 || r.P99() <= slo
		}
		if st.AttainedP95 {
			attained95++
		}
		if st.AttainedP99 {
			attained99++
		}
		sum.Funcs = append(sum.Funcs, st)
		sum.Requests += st.Requests
		sum.Violations += st.Violations
		sum.ColdStartViolations += st.ColdStartViolations
		sum.GoodputRPS += st.GoodputRPS
	}
	if n := len(sum.Funcs); n > 0 {
		sum.P95Attainment = float64(attained95) / float64(n)
		sum.P99Attainment = float64(attained99) / float64(n)
	}
	return sum
}
