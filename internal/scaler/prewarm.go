package scaler

import (
	"math"

	"dilu/internal/sim"
)

// Rate-trend prewarming constants. No caller tunes them.
const (
	// prewarmWindow is the trailing sample count the trend fit uses
	// (five seconds of history).
	prewarmWindow = 5
	// prewarmHeadroom multiplies projected demand before it is turned
	// into an instance count. 1.3 targets ~77% utilization: prewarming
	// at exactly predicted/capacity would run instances saturated, and
	// queueing would eat the latency the early launches bought.
	prewarmHeadroom = 1.3
)

// Prewarm is predictive prewarming in the spirit of HAS-GPU's hybrid
// auto-scaling, as a wrapper around any reactive policy. Each second it
// fits a linear trend to the trailing RPS samples, projects demand one
// cold start plus one control period ahead (the earliest a launch
// decided now can be serving), and asks for one instance when current
// plus launching capacity falls short — so the cold start is paid off
// the request path. The inner policy then decides on the instance count
// that includes the ask, and the two answers are netted.
type Prewarm struct {
	Policy
	coldStart sim.Duration
	// ring holds the trailing RPS samples, oldest first.
	ring []float64
	// launching holds the projected ready times of asked-for launches
	// still in their cold-start window, so consecutive steps do not ask
	// again for capacity that is already on the way.
	launching []sim.Time
	launches  int
}

// NewPrewarm wraps inner with rate-trend prewarming for a function
// whose cold start takes coldStart.
func NewPrewarm(inner Policy, coldStart sim.Duration) *Prewarm {
	return &Prewarm{Policy: inner, coldStart: coldStart}
}

// Launches returns how many instances the trend has asked for.
func (p *Prewarm) Launches() int { return p.launches }

// Decide implements Policy.
func (p *Prewarm) Decide(now sim.Time, rps float64, instances int, perInstanceRPS float64) int {
	p.ring = append(p.ring, rps)
	if len(p.ring) > prewarmWindow {
		p.ring = p.ring[:copy(p.ring, p.ring[len(p.ring)-prewarmWindow:])]
	}
	kept := p.launching[:0]
	for _, t := range p.launching {
		if t > now {
			kept = append(kept, t)
		}
	}
	p.launching = kept
	k := 0
	if n := len(p.ring); n >= 2 && perInstanceRPS > 0 {
		last := p.ring[n-1]
		if slope := (last - p.ring[0]) / float64(n-1); slope > 0 {
			predicted := last + slope*(p.coldStart+sim.Second).Seconds()
			needed := int(math.Ceil(predicted * prewarmHeadroom / perInstanceRPS))
			if instances+len(p.launching) < needed {
				k = 1
				p.launches++
				// The model's full cold start upper-bounds the launch
				// window (a kernel-cache hit only shortens it), so the
				// entry errs on counting as on the way too long rather
				// than asking twice.
				p.launching = append(p.launching, now+sim.Time(p.coldStart))
			}
		}
	}
	return k + p.Policy.Decide(now, rps, instances+k, perInstanceRPS)
}
