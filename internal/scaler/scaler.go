// Package scaler implements the horizontal-scaling half of Dilu's 2D
// co-scaling (§3.4.2) as pure per-function decision policies, together
// with the reactive (FaST-GS+) and keep-alive/predictive (INFless+)
// baselines of Table 3.
//
// A policy receives one RPS sample per second from the gateway and the
// current instance count, and answers with an instance-count delta. The
// serving plane executes deltas (launch with cold start, or reuse of a
// keep-alive instance) — policies only decide.
package scaler

import (
	"dilu/internal/sim"
)

// Policy is a per-function horizontal scaling decider.
type Policy interface {
	Name() string
	// Decide consumes the latest one-second RPS sample and returns the
	// desired change in instance count (usually -1, 0 or +1).
	Decide(now sim.Time, rps float64, instances int, perInstanceRPS float64) int
	// KeepAliveTTL is how long a descheduled instance lingers warm before
	// its resources are released (0 = immediate release).
	KeepAliveTTL() sim.Duration
}

// ---------------------------------------------------------------------------
// Dilu: lazy scale-out/in.

// DiluConfig holds the sliding-window hyper-parameters of §3.4.2.
type DiluConfig struct {
	Window int // sliding window length in samples (default 40 ≙ 40 s)
	PhiOut int // samples over capacity required to scale out (default 20)
	PhiIn  int // samples under (n−1)-capacity required to scale in (default 30)
}

// minInstances is the floor every policy scales in to: a function keeps
// one instance, so scale-to-zero is left to keep-alive expiry.
const minInstances = 1

func (c DiluConfig) withDefaults() DiluConfig {
	if c.Window <= 0 {
		c.Window = 40
	}
	if c.PhiOut <= 0 {
		c.PhiOut = 20
	}
	if c.PhiIn <= 0 {
		c.PhiIn = 30
	}
	return c
}

// Dilu is the lazy horizontal scaler: bursts shorter than the window are
// absorbed by vertical scaling (RCKM's EMERGENCY scale-up); only
// sustained overload adds instances, and only sustained underload
// removes them, which is what cuts cold starts in Table 3.
type Dilu struct {
	cfg     DiluConfig
	samples []float64
}

// NewDilu builds the policy.
func NewDilu(cfg DiluConfig) *Dilu { return &Dilu{cfg: cfg.withDefaults()} }

// Name implements Policy.
func (d *Dilu) Name() string { return "Dilu" }

// KeepAliveTTL implements Policy: Dilu relies on lazy scale-in rather
// than a warm pool, so releases are immediate.
func (d *Dilu) KeepAliveTTL() sim.Duration { return 0 }

// Decide implements Policy.
func (d *Dilu) Decide(_ sim.Time, rps float64, instances int, perInstanceRPS float64) int {
	d.samples = append(d.samples, rps)
	if len(d.samples) > d.cfg.Window {
		d.samples = d.samples[len(d.samples)-d.cfg.Window:]
	}
	if perInstanceRPS <= 0 {
		return 0
	}
	capNow := float64(instances) * perInstanceRPS
	capLess := float64(instances-1) * perInstanceRPS
	over, under := 0, 0
	for _, s := range d.samples {
		if s > capNow {
			over++
		}
		if s < capLess {
			under++
		}
	}
	if over >= d.cfg.PhiOut {
		d.samples = d.samples[:0] // re-arm after a decision
		return +1
	}
	if instances > minInstances && under > d.cfg.PhiIn {
		d.samples = d.samples[:0]
		return -1
	}
	return 0
}

// ---------------------------------------------------------------------------
// FaST-GS+: eager reactive scaling.

// FaST-GS+ scales out after 2 consecutive over-capacity samples and in
// after 5 consecutive under-capacity ones.
const eagerOutAfter, eagerInAfter = 2, 5

// Eager is the FaST-GS+ strategy: launch as soon as a couple of samples
// exceed capacity and terminate almost as quickly. It reacts fast but
// churns instances, paying cold starts for every few-second burst.
type Eager struct{ overRun, underRun int }

// NewEager builds the policy.
func NewEager() *Eager { return &Eager{} }

// Name implements Policy.
func (e *Eager) Name() string { return "FaST-GS+" }

// KeepAliveTTL implements Policy: a brief grace period only.
func (e *Eager) KeepAliveTTL() sim.Duration { return 5 * sim.Second }

// Decide implements Policy.
func (e *Eager) Decide(_ sim.Time, rps float64, instances int, perInstanceRPS float64) int {
	if perInstanceRPS <= 0 {
		return 0
	}
	if rps > float64(instances)*perInstanceRPS {
		e.overRun++
	} else {
		e.overRun = 0
	}
	if rps < float64(instances-1)*perInstanceRPS {
		e.underRun++
	} else {
		e.underRun = 0
	}
	if e.overRun >= eagerOutAfter {
		e.overRun = 0
		return +1
	}
	if instances > minInstances && e.underRun >= eagerInAfter {
		e.underRun = 0
		return -1
	}
	return 0
}

// ---------------------------------------------------------------------------
// INFless+: windowed reactive scaling with keep-alive and histogram
// prewarming.

// Predictive is the INFless+/Azure-style strategy: a medium reactive
// window plus a keep-alive pool sized from prior knowledge. Terminated
// instances stay warm for the TTL (reducing cold starts on recurring
// load) at the price of held GPU memory — the waste Table 3 charges it.
type Predictive struct {
	samples []float64
	// interArrival histogram state for prewarm prediction.
	lastBusy   sim.Time
	gapEWMA    float64
	hasGap     bool
	prewarmHit bool
}

// INFless+ scales out when 60% of a 15-sample window is over capacity
// and in when 80% is under; descheduled instances stay warm a minute.
const (
	predWindow, predOutFrac, predInFrac = 15, 0.6, 0.8
	predTTL                             = 60 * sim.Second
)

// NewPredictive builds the policy.
func NewPredictive() *Predictive { return &Predictive{} }

// Name implements Policy.
func (p *Predictive) Name() string { return "INFless+" }

// KeepAliveTTL implements Policy.
func (p *Predictive) KeepAliveTTL() sim.Duration { return predTTL }

// Decide implements Policy.
func (p *Predictive) Decide(now sim.Time, rps float64, instances int, perInstanceRPS float64) int {
	p.samples = append(p.samples, rps)
	if len(p.samples) > predWindow {
		p.samples = p.samples[len(p.samples)-predWindow:]
	}
	if perInstanceRPS <= 0 {
		return 0
	}
	// Track idle-gap EWMA for the histogram-style prewarm: when load
	// returns after a gap close to the learned period, scale out ahead
	// of the window filling up.
	if rps > 0 {
		if p.lastBusy > 0 {
			gap := (now - p.lastBusy).Seconds()
			if gap > 5 {
				if p.hasGap {
					p.gapEWMA = 0.7*p.gapEWMA + 0.3*gap
				} else {
					p.gapEWMA = gap
					p.hasGap = true
				}
			}
		}
		p.lastBusy = now
	}
	capNow := float64(instances) * perInstanceRPS
	capLess := float64(instances-1) * perInstanceRPS
	over, under := 0, 0
	for _, s := range p.samples {
		if s > capNow {
			over++
		}
		if s < capLess {
			under++
		}
	}
	if float64(over) >= predOutFrac*predWindow {
		p.samples = p.samples[:0]
		return +1
	}
	// Prewarm: a burst beginning right after a learned-period gap adds
	// an instance one step early.
	if p.hasGap && rps > capNow && over >= 2 && !p.prewarmHit {
		p.prewarmHit = true
		return +1
	}
	if rps <= capNow {
		p.prewarmHit = false
	}
	if instances > minInstances && float64(under) >= predInFrac*predWindow {
		p.samples = p.samples[:0]
		return -1
	}
	return 0
}
