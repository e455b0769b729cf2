package core

import (
	"math"

	"dilu/internal/sim"
)

// Admission policies decide, per submitted request, whether the gateway
// admits or sheds. The three built-ins cover the production triad:
// per-tenant token-bucket rate limits, DRF-style weighted fair sharing
// of serving capacity, and deadline-aware load shedding that trades
// dropped requests against SLO goodput under overload (the kserve
// batcher/inference-graph admission semantics, collapsed to the
// single-stage request model). Policies hold per-run state, so build a
// fresh value per System.

// AdmissionPolicy decides one request at submission time. The gateway
// has already resolved the request's effective tenant (empty inherits
// the function's deployment tenant) and the target function; policies
// may read — never mutate — serving-plane state through f and f.sys.
type AdmissionPolicy interface {
	Name() string
	Admit(now sim.Time, req Request, f *Function) bool
}

// ---------------------------------------------------------------------------
// Token bucket.

// TokenBucket rate-limits each tenant independently: a bucket of Burst
// tokens refills continuously at Rate tokens/second, and a request is
// admitted only when a full token is available. Buckets start full and
// refill lazily at admission time, so the policy is deterministic and
// costs O(1) per request with no tickers.
type TokenBucket struct {
	Rate  float64 // sustained admissions per second per tenant
	Burst float64 // bucket depth; <=0 defaults to max(Rate, 1)

	buckets map[string]*tbBucket
}

type tbBucket struct {
	tokens float64
	last   sim.Time
}

// NewTokenBucket builds a per-tenant token-bucket policy.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	return &TokenBucket{Rate: rate, Burst: burst}
}

func (tb *TokenBucket) burst() float64 {
	if tb.Burst > 0 {
		return tb.Burst
	}
	return math.Max(tb.Rate, 1)
}

// Name implements AdmissionPolicy.
func (tb *TokenBucket) Name() string { return "token-bucket" }

// Admit implements AdmissionPolicy.
func (tb *TokenBucket) Admit(now sim.Time, req Request, _ *Function) bool {
	if tb.Rate <= 0 {
		return false
	}
	if tb.buckets == nil {
		tb.buckets = make(map[string]*tbBucket)
	}
	b, ok := tb.buckets[req.Tenant]
	if !ok {
		b = &tbBucket{tokens: tb.burst(), last: now}
		tb.buckets[req.Tenant] = b
	}
	if now > b.last {
		b.tokens = math.Min(tb.burst(), b.tokens+(now-b.last).Seconds()*tb.Rate)
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// ---------------------------------------------------------------------------
// DRF-style fair sharing.

// FairShare divides a fixed pool of serving capacity — Capacity
// concurrent in-flight requests, the dominant resource of an inference
// tenant — across tenants by weighted max-min fairness (DRF collapsed
// to its single-resource case). A request is admitted only while its
// tenant's in-flight count stays within the tenant's current fair
// allocation; idle tenants' unused shares redistribute to the busy
// ones, so the pool is always fully usable.
type FairShare struct {
	// Capacity is the total concurrent-request pool. <=0 admits all.
	Capacity float64
	// Weights maps tenant to relative weight; missing tenants weigh 1.
	Weights map[string]float64
}

// Name implements AdmissionPolicy.
func (fs FairShare) Name() string { return "fair-share" }

func (fs FairShare) weight(tenant string) float64 {
	if w, ok := fs.Weights[tenant]; ok && w > 0 {
		return w
	}
	return 1
}

// Admit implements AdmissionPolicy: recompute the max-min allocation
// over the tenants' current in-flight demand (with this request added
// to its tenant's) and admit iff the tenant stays within its share.
func (fs FairShare) Admit(now sim.Time, req Request, f *Function) bool {
	if fs.Capacity <= 0 {
		return true
	}
	sys := f.sys
	tenants := sys.tenantOrder
	idx := -1
	weights := make([]float64, 0, len(tenants)+1)
	demands := make([]float64, 0, len(tenants)+1)
	for i, t := range tenants {
		if t == req.Tenant {
			idx = i
		}
		var inflight int64
		for _, tf := range sys.tenantFuncs[t] {
			inflight += tf.InFlightCount()
		}
		weights = append(weights, fs.weight(t))
		demands = append(demands, float64(inflight))
	}
	if idx < 0 {
		// Tenant without a deployment of its own (request-level identity
		// on a shared function): account it as one extra tenant.
		idx = len(demands)
		weights = append(weights, fs.weight(req.Tenant))
		demands = append(demands, 0)
	}
	demands[idx]++ // the request under decision
	alloc := FairShares(fs.Capacity, weights, demands)
	return demands[idx] <= alloc[idx]+fairShareEps
}

const fairShareEps = 1e-9

// FairShares computes the weighted max-min (DRF, single dominant
// resource) allocation of capacity across tenants: each tenant receives
// min(demand_i, level·w_i) with the water level chosen so the total
// equals min(capacity, Σdemand). When demand saturates the pool the
// shares sum to capacity exactly — the property the admission property
// test pins. Nil weights (or non-positive entries) count as 1.
func FairShares(capacity float64, weights, demands []float64) []float64 {
	alloc := make([]float64, len(demands))
	if capacity <= 0 {
		return alloc
	}
	w := func(i int) float64 {
		if i < len(weights) && weights[i] > 0 {
			return weights[i]
		}
		return 1
	}
	active := make([]int, 0, len(demands))
	for i, d := range demands {
		if d > 0 {
			active = append(active, i)
		}
	}
	remaining := capacity
	for len(active) > 0 && remaining > fairShareEps {
		var wsum float64
		for _, i := range active {
			wsum += w(i)
		}
		level := remaining / wsum
		// Saturate every tenant whose residual demand sits below its
		// weighted share of the remainder; their leftovers redistribute
		// on the next pass. If nobody saturates, the level splits the
		// remainder exactly and the filling is done.
		kept := active[:0]
		saturated := false
		for _, i := range active {
			if demands[i]-alloc[i] <= level*w(i)+fairShareEps {
				remaining -= demands[i] - alloc[i]
				alloc[i] = demands[i]
				saturated = true
			} else {
				kept = append(kept, i)
			}
		}
		active = kept
		if !saturated {
			for _, i := range active {
				alloc[i] += level * w(i)
			}
			remaining = 0
		}
	}
	return alloc
}

// ---------------------------------------------------------------------------
// Deadline-aware load shedding.

// DeadlineShed sheds requests whose estimated completion would overrun
// their deadline — admission-time load shedding that keeps the admitted
// queue short enough to serve within budget, trading dropped requests
// for SLO goodput under overload. A request without its own deadline
// budget falls back to the target function's SLO; with neither, it is
// always admitted.
type DeadlineShed struct {
	// Slack scales the deadline the estimate is compared against:
	// values below 1 shed earlier (headroom for estimate error), above
	// 1 admit more optimistically. <=0 defaults to 1.
	Slack float64
}

// Name implements AdmissionPolicy.
func (DeadlineShed) Name() string { return "deadline-shed" }

// Admit implements AdmissionPolicy.
func (p DeadlineShed) Admit(now sim.Time, req Request, f *Function) bool {
	deadline := req.Deadline
	if deadline <= 0 {
		deadline = f.Rec.SLO()
	}
	if deadline <= 0 {
		return true
	}
	slack := p.Slack
	if slack <= 0 {
		slack = 1
	}
	return f.estimateLatency() <= deadline.Seconds()*slack
}

// estimateLatency is the gateway's completion estimate for one more
// request on this function, in seconds: the current backlog (gateway
// pending plus every instance's queued and in-flight work) plus the
// request itself, drained at the serving instances' aggregate profiled
// throughput. With nothing serving (cold-start window, eviction) the
// estimate is +Inf — a deadline-bound request cannot be promised
// anything.
func (f *Function) estimateLatency() float64 {
	backlog := len(f.pending)
	serving := 0
	for _, si := range f.active {
		backlog += si.inst.Load()
		if si.inst.Active() {
			serving++
		}
	}
	rate := float64(serving) * f.Profile.ServingRPS
	if rate <= 0 {
		return math.Inf(1)
	}
	return float64(backlog+1) / rate
}
