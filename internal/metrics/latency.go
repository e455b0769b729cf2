// Package metrics implements the measurement layer shared by all Dilu
// experiments: latency recorders with percentiles and SLO-violation rates,
// counters for cold starts, time series for utilization traces, and
// fragmentation/throughput accounting.
package metrics

import (
	"fmt"
	"math"
	"slices"

	"dilu/internal/sim"
)

// ColdStage identifies the cold-start stage that was on a request's
// critical path: the stage of the launch window the request's wait
// overlapped the most (ColdNone when no launch was on the path — a
// warm-queueing wait, or no wait at all).
type ColdStage uint8

// Cold-start stage identifiers, in execution order.
const (
	ColdNone      ColdStage = iota // no cold start on the request's path
	ColdImageInit                  // container image pull + runtime init
	ColdModelLoad                  // parameter load
	ColdKernelJIT                  // GPU-kernel JIT / graph capture
)

// String names the stage for tables and error messages.
func (s ColdStage) String() string {
	switch s {
	case ColdImageInit:
		return "image_init"
	case ColdModelLoad:
		return "model_load"
	case ColdKernelJIT:
		return "kernel_jit"
	default:
		return "none"
	}
}

// LatencyRecorder accumulates request latencies for one function and
// derives the paper's inference metrics: p50/p95/p99 latency and SLO
// violation rate (SVR), plus the goodput/attribution accounting of the
// SLO layer (see slo.go).
type LatencyRecorder struct {
	name    string
	tenant  string
	slo     sim.Duration
	samples []sim.Duration
	// sorted is the dirty flag of the percentile path: it is cleared on
	// every mutation and set by the one sort ensureSorted performs per
	// mutation epoch, so chained Percentile/P95/P99/Max calls (the SLO
	// summary emits several in a row) never re-sort an unchanged slice.
	// sorts counts those sorts for the regression test that pins the
	// one-sort-per-epoch contract.
	sorted bool
	sorts  int
	// violations counts samples above the SLO, attributed to the
	// cold-start stage on the request's path or, when it waited with no
	// launch on the path, to the warm-queue bucket.
	violations          int
	stageViolations     [4]int // indexed by ColdStage; [ColdNone] unused
	warmQueueViolations int
}

// NewLatencyRecorder creates a recorder for a function with the given SLO.
// An SLO of zero disables violation accounting.
func NewLatencyRecorder(name string, slo sim.Duration) *LatencyRecorder {
	return &LatencyRecorder{name: name, slo: slo}
}

// Name returns the function name this recorder belongs to.
func (r *LatencyRecorder) Name() string { return r.name }

// SetTenant labels the recorder with the function's deployment tenant;
// the SLO summary carries it into the per-function stats row.
func (r *LatencyRecorder) SetTenant(tenant string) { r.tenant = tenant }

// Tenant returns the deployment tenant label ("" = default tenant).
func (r *LatencyRecorder) Tenant() string { return r.tenant }

// SLO returns the recorder's SLO target.
func (r *LatencyRecorder) SLO() sim.Duration { return r.slo }

// Observe records one request latency with no gateway wait and no
// launch on its path.
func (r *LatencyRecorder) Observe(latency sim.Duration) {
	r.ObserveWaitStage(latency, 0, ColdNone)
}

// ObserveWaitStage records one request latency, the time the request
// spent waiting at the gateway for an instance (zero when it was
// dispatched on arrival), and the cold-start stage on its critical
// path (ColdNone when no launch was on it). A violating sample is
// attributed to that stage, or to the warm-queue bucket when it waited
// with no launch on its path.
func (r *LatencyRecorder) ObserveWaitStage(latency, wait sim.Duration, stage ColdStage) {
	r.samples = append(r.samples, latency)
	r.sorted = false
	if r.slo > 0 && latency > r.slo {
		r.violations++
		if stage != ColdNone {
			r.stageViolations[stage]++
		} else if wait > 0 {
			r.warmQueueViolations++
		}
	}
}

// Count returns the number of recorded samples.
func (r *LatencyRecorder) Count() int { return len(r.samples) }

// Violations returns the number of SLO-violating samples.
func (r *LatencyRecorder) Violations() int { return r.violations }

// ColdStartViolations returns the violating samples attributed to the
// cold-start path: violations with a launch stage on the critical path.
func (r *LatencyRecorder) ColdStartViolations() int {
	return r.stageViolations[ColdImageInit] +
		r.stageViolations[ColdModelLoad] +
		r.stageViolations[ColdKernelJIT]
}

// StageViolations returns the violating samples whose critical path ran
// through the given cold-start stage. ColdNone always reports zero (see
// WarmQueueViolations).
func (r *LatencyRecorder) StageViolations(stage ColdStage) int {
	return r.stageViolations[stage]
}

// WarmQueueViolations returns the violating samples that waited at the
// gateway with no launch on their critical path — warm queueing,
// redispatch after churn or faults, hedge waits.
func (r *LatencyRecorder) WarmQueueViolations() int { return r.warmQueueViolations }

// Goodput returns the number of samples that met the SLO. With no SLO
// configured every sample counts as goodput.
func (r *LatencyRecorder) Goodput() int { return len(r.samples) - r.violations }

// ViolationRate returns the SLO violation rate in [0,1]; zero when empty.
func (r *LatencyRecorder) ViolationRate() float64 {
	if len(r.samples) == 0 {
		return 0
	}
	return float64(r.violations) / float64(len(r.samples))
}

func (r *LatencyRecorder) ensureSorted() {
	if !r.sorted {
		// slices.Sort specializes on the ordered element type — no
		// reflection-driven swaps on the percentile path.
		slices.Sort(r.samples)
		r.sorted = true
		r.sorts++
	}
}

// Percentile returns the p-th percentile latency (p in [0,100]) by
// linear interpolation between the two nearest ranks (the "exclusive"
// quantile convention, rank = p/100·(n−1)); zero when empty.
func (r *LatencyRecorder) Percentile(p float64) sim.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	r.ensureSorted()
	if p <= 0 {
		return r.samples[0]
	}
	if p >= 100 {
		return r.samples[len(r.samples)-1]
	}
	rank := p / 100 * float64(len(r.samples)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return r.samples[lo]
	}
	frac := rank - float64(lo)
	return r.samples[lo] + sim.Duration(frac*float64(r.samples[hi]-r.samples[lo]))
}

// P50 returns the median latency.
func (r *LatencyRecorder) P50() sim.Duration { return r.Percentile(50) }

// P95 returns the 95th percentile latency.
func (r *LatencyRecorder) P95() sim.Duration { return r.Percentile(95) }

// P99 returns the 99th percentile latency.
func (r *LatencyRecorder) P99() sim.Duration { return r.Percentile(99) }

// Mean returns the mean latency.
func (r *LatencyRecorder) Mean() sim.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	var sum sim.Duration
	for _, s := range r.samples {
		sum += s
	}
	return sum / sim.Duration(len(r.samples))
}

// Max returns the maximum latency.
func (r *LatencyRecorder) Max() sim.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	r.ensureSorted()
	return r.samples[len(r.samples)-1]
}

// Reset discards all samples and counters, including the sort-epoch
// counter, so a reused recorder starts a fresh one-sort-per-epoch
// regime.
func (r *LatencyRecorder) Reset() {
	r.samples = r.samples[:0]
	r.violations = 0
	r.stageViolations = [4]int{}
	r.warmQueueViolations = 0
	r.sorted = true
	r.sorts = 0
}

func (r *LatencyRecorder) String() string {
	return fmt.Sprintf("%s: n=%d p50=%.1fms p95=%.1fms svr=%.2f%%",
		r.name, r.Count(), r.P50().Millis(), r.P95().Millis(), r.ViolationRate()*100)
}
