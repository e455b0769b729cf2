package workload

import (
	"fmt"
	"math"

	"dilu/internal/sim"
)

// Diurnal synthesizes a compressed production day: load swings between a
// night trough and a daytime plateau with a sharper evening peak — the
// arrival shape HAS-GPU and DeepServe evaluate autoscalers against.
// Unlike Periodic's single sinusoid, the profile is asymmetric: ramps are
// fast, the trough is long, and the evening peak tops the daytime
// plateau by PeakBoost.
type Diurnal struct {
	TroughRPS float64      // overnight base rate
	DayRPS    float64      // daytime plateau rate
	PeakBoost float64      // evening peak = DayRPS·(1+PeakBoost); default 0.5
	Period    sim.Duration // one compressed "day"; default 240 s
}

// Name implements Arrivals.
func (d Diurnal) Name() string { return "diurnal" }

// boost resolves the PeakBoost default in one place: rate and the
// thinning Peak bound must agree, or arrivals would be silently capped
// below the profile during the evening peak.
func (d Diurnal) boost() float64 {
	if d.PeakBoost <= 0 {
		return 0.5
	}
	return d.PeakBoost
}

// rate is the instantaneous rate at phase u ∈ [0,1) of the day.
func (d Diurnal) rate(u float64) float64 {
	boost := d.boost()
	switch {
	case u < 0.25: // night trough
		return d.TroughRPS
	case u < 0.35: // morning ramp
		f := (u - 0.25) / 0.10
		return d.TroughRPS + f*(d.DayRPS-d.TroughRPS)
	case u < 0.70: // daytime plateau
		return d.DayRPS
	case u < 0.80: // evening peak (raised cosine bump)
		f := (u - 0.70) / 0.10
		return d.DayRPS * (1 + boost*0.5*(1-math.Cos(2*math.Pi*f)))
	case u < 0.90: // wind-down
		f := (u - 0.80) / 0.10
		return d.DayRPS + f*(d.TroughRPS-d.DayRPS)
	default:
		return d.TroughRPS
	}
}

// Stream implements Arrivals.
func (d Diurnal) Stream(rng *sim.RNG, dur sim.Duration) sim.Cursor {
	period := d.Period
	if period <= 0 {
		period = 240 * sim.Second
	}
	peak := d.DayRPS * (1 + d.boost())
	if peak < d.TroughRPS {
		peak = d.TroughRPS
	}
	rf := RateFunc{
		Label: "diurnal",
		RPS: func(at sim.Time) float64 {
			u := math.Mod(float64(at)/float64(period), 1)
			return d.rate(u)
		},
		Peak: peak,
	}
	return rf.Stream(rng, dur)
}

// Generate implements Arrivals.
func (d Diurnal) Generate(rng *sim.RNG, dur sim.Duration) []sim.Time {
	return drain(d.Stream(rng, dur))
}

// Pareto is a heavy-tailed renewal process: inter-arrival gaps follow a
// Pareto(α, x_m) distribution with the scale chosen so the mean rate is
// RPS. Small α (1 < α ≤ 2) produces the bursty, long-silence arrival
// pattern of production serverless traces — most gaps are tiny (bursts),
// but occasional gaps are enormous, a regime Poisson never visits.
type Pareto struct {
	RPS   float64
	Alpha float64 // tail exponent; values ≤ 1 are clamped to 1.05 (infinite-mean regime)
}

// Name implements Arrivals.
func (p Pareto) Name() string { return "pareto" }

// Stream implements Arrivals.
func (p Pareto) Stream(rng *sim.RNG, dur sim.Duration) sim.Cursor {
	if p.RPS <= 0 {
		return exhausted{}
	}
	alpha := p.Alpha
	if alpha <= 1 {
		alpha = 1.05
	}
	// Mean gap of Pareto(α, x_m) is α·x_m/(α−1); match it to 1/RPS.
	xm := (alpha - 1) / (alpha * p.RPS)
	return &renewal{gap: func() sim.Duration { return sim.FromSeconds(rng.Pareto(alpha, xm)) }, dur: dur}
}

// Generate implements Arrivals.
func (p Pareto) Generate(rng *sim.RNG, dur sim.Duration) []sim.Time {
	return drain(p.Stream(rng, dur))
}

// TenantArrivals is one tenant's share of a multi-tenant mix.
type TenantArrivals struct {
	// Tenant is the structured tenant identity, for core.InferOpts.Tenant
	// / core.Request.Tenant — the gateway's accounting key.
	Tenant string
	// Name is the per-tenant function name. It equals Tenant (the
	// pre-gateway name-mangled encoding), kept as a separate field so
	// deployments that predate structured tenancy stay byte-identical.
	Name   string
	Weight float64 // popularity share in (0,1], Σ = 1
	Times  []sim.Time
}

// TenantMix synthesizes a multi-tenant workload with per-function
// popularity skew: TotalRPS is split across Tenants functions by Zipf
// weights w_i ∝ 1/i^Skew, and each tenant draws an independent arrival
// process at its share of the rate. Skew 0 is a uniform split; Skew ≈ 1
// reproduces the head-heavy popularity of production function traces.
type TenantMix struct {
	Tenants  int
	TotalRPS float64
	Skew     float64
	// Shape builds tenant i's arrival process at rate rps; nil defaults to
	// Poisson. The per-tenant index lets mixes vary shape by popularity
	// rank (e.g. bursty head, sporadic tail).
	Shape func(i int, rps float64) Arrivals
}

// Weights returns the normalized Zipf popularity weights, head first.
func (m TenantMix) Weights() []float64 {
	n := m.Tenants
	if n <= 0 {
		return nil
	}
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), m.Skew)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// shape returns tenant i's arrival process at rate rps.
func (m TenantMix) shape(i int, rps float64) Arrivals {
	if m.Shape != nil {
		return m.Shape(i, rps)
	}
	return Poisson{RPS: rps}
}

// Split materializes every tenant's arrival sequence. Each tenant draws
// from an independent forked RNG stream, so adding a tenant never
// perturbs the others' arrivals.
func (m TenantMix) Split(rng *sim.RNG, dur sim.Duration) []TenantArrivals {
	weights := m.Weights()
	out := make([]TenantArrivals, len(weights))
	for i, w := range weights {
		id := fmt.Sprintf("tenant-%02d", i)
		out[i] = TenantArrivals{
			Tenant: id,
			Name:   id,
			Weight: w,
			Times:  m.shape(i, m.TotalRPS*w).Generate(rng.Fork(int64(i+1)), dur),
		}
	}
	return out
}

// Name implements Arrivals for the aggregate mix.
func (m TenantMix) Name() string { return "tenant-mix" }

// Stream implements Arrivals: the merged arrivals of every tenant (the
// aggregate offered load), each tenant on the RNG fork Split gives it.
func (m TenantMix) Stream(rng *sim.RNG, dur sim.Duration) sim.Cursor {
	weights := m.Weights()
	srcs := make([]sim.Cursor, len(weights))
	for i, w := range weights {
		srcs[i] = m.shape(i, m.TotalRPS*w).Stream(rng.Fork(int64(i+1)), dur)
	}
	return merge(srcs)
}

// Generate implements Arrivals.
func (m TenantMix) Generate(rng *sim.RNG, dur sim.Duration) []sim.Time {
	return drain(m.Stream(rng, dur))
}
