// Package workload generates the request arrival processes of the
// paper's evaluation: Poisson and Gamma(CV) inter-arrival processes
// (Figures 7, 8, 10), and Azure-Functions-like Bursty, Sporadic and
// Periodic traces (Table 3, Figures 12, 15) synthesized from the shape
// descriptions published with INFless and "Serverless in the Wild".
//
// Every process is written once, as a cursor (Arrivals.Stream) that
// draws the next arrival from a seeded RNG only when asked, so an
// engine pulls arrivals as the run reaches them and memory per function
// is O(1) however long the bound. Generate drains the same cursor into
// a slice for offline views (offered-load plots, trace export); both
// yield the same sequence from the same RNG, keeping every experiment
// deterministic.
package workload

import (
	"math"

	"dilu/internal/sim"
)

// Arrivals produces a deterministic arrival-time sequence over a horizon.
type Arrivals interface {
	Name() string
	// Stream returns a cursor over non-decreasing arrival times
	// in [0, dur), drawn from rng one at a time as the cursor is pulled.
	// The cursor owns rng from then on.
	Stream(rng *sim.RNG, dur sim.Duration) sim.Cursor
	// Generate returns the whole sequence Stream would yield.
	Generate(rng *sim.RNG, dur sim.Duration) []sim.Time
}

// drain collects every remaining time of c; nil when there are none.
func drain(c sim.Cursor) []sim.Time {
	var out []sim.Time
	for t, ok := c.Next(); ok; t, ok = c.Next() {
		out = append(out, t)
	}
	return out
}

// exhausted is the cursor of an empty process.
type exhausted struct{}

// Next implements sim.Cursor.
func (exhausted) Next() (sim.Time, bool) { return 0, false }

// renewal is the cursor of a renewal process: arrivals at the running
// sum of independent gaps, cut at the horizon.
type renewal struct {
	gap func() sim.Duration // nil once the horizon is reached
	t   sim.Time
	dur sim.Duration
}

// Next implements sim.Cursor.
func (r *renewal) Next() (sim.Time, bool) {
	if r.gap == nil {
		return 0, false
	}
	r.t += r.gap()
	if r.t >= r.dur {
		r.gap = nil
		return 0, false
	}
	return r.t, true
}

// Constant emits requests at an exact fixed rate (deterministic gaps).
type Constant struct{ RPS float64 }

// Name implements Arrivals.
func (c Constant) Name() string { return "constant" }

// Stream implements Arrivals.
func (c Constant) Stream(_ *sim.RNG, dur sim.Duration) sim.Cursor {
	if c.RPS <= 0 {
		return exhausted{}
	}
	gap := sim.FromSeconds(1 / c.RPS)
	return &renewal{gap: func() sim.Duration { return gap }, dur: dur}
}

// Generate implements Arrivals.
func (c Constant) Generate(rng *sim.RNG, dur sim.Duration) []sim.Time {
	return drain(c.Stream(rng, dur))
}

// Poisson is a homogeneous Poisson arrival process.
type Poisson struct{ RPS float64 }

// Name implements Arrivals.
func (p Poisson) Name() string { return "poisson" }

// Stream implements Arrivals.
func (p Poisson) Stream(rng *sim.RNG, dur sim.Duration) sim.Cursor {
	if p.RPS <= 0 {
		return exhausted{}
	}
	rate := p.RPS
	return &renewal{gap: func() sim.Duration { return sim.FromSeconds(rng.Exp(rate)) }, dur: dur}
}

// Generate implements Arrivals.
func (p Poisson) Generate(rng *sim.RNG, dur sim.Duration) []sim.Time {
	return drain(p.Stream(rng, dur))
}

// Gamma is a renewal process with Gamma-distributed inter-arrival gaps
// parameterized by mean rate and coefficient of variation; CV=1 recovers
// Poisson and larger CVs produce the fluctuating workloads of Figure 10
// (FastServe-style).
type Gamma struct {
	RPS float64
	CV  float64
}

// Name implements Arrivals.
func (g Gamma) Name() string { return "gamma" }

// Stream implements Arrivals.
func (g Gamma) Stream(rng *sim.RNG, dur sim.Duration) sim.Cursor {
	if g.RPS <= 0 {
		return exhausted{}
	}
	meanGap, cv := 1/g.RPS, g.CV
	return &renewal{gap: func() sim.Duration { return sim.FromSeconds(rng.GammaInterArrival(meanGap, cv)) }, dur: dur}
}

// Generate implements Arrivals.
func (g Gamma) Generate(rng *sim.RNG, dur sim.Duration) []sim.Time {
	return drain(g.Stream(rng, dur))
}

// RateFunc is a non-homogeneous Poisson process whose instantaneous rate
// is given by RPS(t). It is the building block for the Azure-style traces.
//
// RPS must be a pure function of time: cursors over one RateFunc value
// may be live on several engines at once, each querying RPS at its own
// times, so no state inside RPS may carry from one query to the next.
type RateFunc struct {
	Label string
	RPS   func(t sim.Time) float64
	Peak  float64 // an upper bound of RPS over the horizon, for thinning
}

// Name implements Arrivals.
func (r RateFunc) Name() string { return r.Label }

// Stream implements Arrivals via Lewis-Shedler thinning.
func (r RateFunc) Stream(rng *sim.RNG, dur sim.Duration) sim.Cursor {
	if r.Peak <= 0 {
		return exhausted{}
	}
	return &thinning{rng: rng, rate: r.RPS, peak: r.Peak, dur: dur}
}

// Generate implements Arrivals.
func (r RateFunc) Generate(rng *sim.RNG, dur sim.Duration) []sim.Time {
	return drain(r.Stream(rng, dur))
}

// thinning is the Lewis-Shedler cursor: candidates from a Poisson
// process at peak, each kept with probability rate(t)/peak. Candidates
// are queried in non-decreasing time order.
type thinning struct {
	rng  *sim.RNG
	rate func(sim.Time) float64
	peak float64
	t    sim.Time
	dur  sim.Duration
	done bool
}

// Next implements sim.Cursor.
func (c *thinning) Next() (sim.Time, bool) {
	for !c.done {
		c.t += sim.FromSeconds(c.rng.Exp(c.peak))
		if c.t >= c.dur {
			c.done = true
			break
		}
		if c.rng.Float64() < c.rate(c.t)/c.peak {
			return c.t, true
		}
	}
	return 0, false
}

// Bursty synthesizes the Azure "Bursty" trace class: a low base rate with
// sudden bursts of Scale× the base, each lasting BurstDur, spaced
// Quiet apart on average. The paper's Figure 8(a) uses initial burst
// scale factors of 4 and 6.
type Bursty struct {
	BaseRPS  float64
	Scale    float64
	BurstDur sim.Duration
	Quiet    sim.Duration
}

// Name implements Arrivals.
func (b Bursty) Name() string { return "bursty" }

// burstWindows is one cursor's burst schedule: ascending, disjoint
// windows and a monotone index into them. Each Stream call builds its
// own, so live cursors of one Bursty value never share the index.
type burstWindows struct {
	b      Bursty
	bursts []struct{ start, end sim.Time }
	idx    int
}

// rate is the instantaneous rate at a time no earlier than the previous
// query's.
func (w *burstWindows) rate(at sim.Time) float64 {
	for w.idx < len(w.bursts) && at >= w.bursts[w.idx].end {
		w.idx++
	}
	if w.idx < len(w.bursts) && at >= w.bursts[w.idx].start {
		return w.b.BaseRPS * w.b.Scale
	}
	return w.b.BaseRPS
}

// Stream implements Arrivals: it draws the burst windows over the whole
// horizon first, then thins against them.
func (b Bursty) Stream(rng *sim.RNG, dur sim.Duration) sim.Cursor {
	burstDur := b.BurstDur
	if burstDur <= 0 {
		burstDur = 20 * sim.Second
	}
	quiet := b.Quiet
	if quiet <= 0 {
		quiet = 60 * sim.Second
	}
	w := &burstWindows{b: b}
	t := sim.Time(float64(quiet) * (0.5 + rng.Float64()))
	for t < dur {
		w.bursts = append(w.bursts, struct{ start, end sim.Time }{t, t + burstDur})
		t += burstDur + sim.Time(float64(quiet)*(0.5+rng.Float64()))
	}
	peak := b.BaseRPS * b.Scale
	if peak <= 0 {
		return exhausted{}
	}
	return &thinning{rng: rng, rate: w.rate, peak: peak, dur: dur}
}

// Generate implements Arrivals.
func (b Bursty) Generate(rng *sim.RNG, dur sim.Duration) []sim.Time {
	return drain(b.Stream(rng, dur))
}

// Periodic synthesizes the Azure "Periodic" trace class: a smooth
// oscillation between trough and peak, modelling compressed diurnal load.
type Periodic struct {
	BaseRPS float64
	Amp     float64 // peak = Base·(1+Amp), trough = Base·(1−Amp)
	Period  sim.Duration
}

// Name implements Arrivals.
func (p Periodic) Name() string { return "periodic" }

// Stream implements Arrivals.
func (p Periodic) Stream(rng *sim.RNG, dur sim.Duration) sim.Cursor {
	period := p.Period
	if period <= 0 {
		period = 120 * sim.Second
	}
	amp := p.Amp
	if amp <= 0 {
		amp = 0.8
	}
	rate := func(at sim.Time) float64 {
		phase := 2 * math.Pi * float64(at) / float64(period)
		r := p.BaseRPS * (1 + amp*math.Sin(phase))
		if r < 0 {
			return 0
		}
		return r
	}
	return RateFunc{Label: "periodic", RPS: rate, Peak: p.BaseRPS * (1 + amp)}.Stream(rng, dur)
}

// Generate implements Arrivals.
func (p Periodic) Generate(rng *sim.RNG, dur sim.Duration) []sim.Time {
	return drain(p.Stream(rng, dur))
}

// Sporadic synthesizes the Azure "Sporadic" trace class: long idle
// stretches with occasional short clusters of requests — the keep-alive
// waste driver of Observation-3 (fewer than 85% of functions invoked per
// minute; a keep-alive instance may see 3-4 requests in ~50 s).
type Sporadic struct {
	ClusterRPS float64      // rate inside a cluster; no arrivals when ≤ 0
	ClusterDur sim.Duration // cluster length
	IdleMean   sim.Duration // mean idle gap between clusters
}

// Name implements Arrivals.
func (s Sporadic) Name() string { return "sporadic" }

// Stream implements Arrivals.
func (s Sporadic) Stream(rng *sim.RNG, dur sim.Duration) sim.Cursor {
	if s.ClusterRPS <= 0 {
		return exhausted{}
	}
	clusterDur := s.ClusterDur
	if clusterDur <= 0 {
		clusterDur = 10 * sim.Second
	}
	idle := s.IdleMean
	if idle <= 0 {
		idle = 90 * sim.Second
	}
	c := &sporadic{rng: rng, rate: s.ClusterRPS, clusterDur: clusterDur, idleRate: 1 / idle.Seconds(), dur: dur}
	c.t = sim.FromSeconds(rng.Exp(c.idleRate))
	c.end = c.t + clusterDur
	return c
}

// Generate implements Arrivals.
func (s Sporadic) Generate(rng *sim.RNG, dur sim.Duration) []sim.Time {
	return drain(s.Stream(rng, dur))
}

// sporadic is Sporadic's cursor: Poisson arrivals at rate until the
// current cluster's end, then an exponential idle gap to the next
// cluster's start.
type sporadic struct {
	rng            *sim.RNG
	rate, idleRate float64
	clusterDur     sim.Duration
	t, end         sim.Time
	dur            sim.Duration
}

// Next implements sim.Cursor.
func (c *sporadic) Next() (sim.Time, bool) {
	for c.t < c.dur {
		if c.t >= c.end {
			c.t = c.end + sim.FromSeconds(c.rng.Exp(c.idleRate))
			c.end = c.t + c.clusterDur
			continue
		}
		c.t += sim.FromSeconds(c.rng.Exp(c.rate))
		if c.t < c.end && c.t < c.dur {
			return c.t, true
		}
	}
	return 0, false
}

// OfferedRPS buckets an arrival sequence into per-window request rates —
// the signal plotted in the top panel of Figure 12 and consumed by the
// global scaler's sliding window.
func OfferedRPS(arrivals []sim.Time, window sim.Duration, dur sim.Duration) []float64 {
	if window <= 0 {
		return nil
	}
	n := int(dur / window)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for _, t := range arrivals {
		i := int(t / window)
		if i >= 0 && i < n {
			out[i] += 1
		}
	}
	scale := 1 / window.Seconds()
	for i := range out {
		out[i] *= scale
	}
	return out
}

// MeanRPS returns the average arrival rate over the horizon.
func MeanRPS(arrivals []sim.Time, dur sim.Duration) float64 {
	if dur <= 0 {
		return 0
	}
	return float64(len(arrivals)) / dur.Seconds()
}

// Merge combines multiple sorted arrival sequences into one sorted
// sequence (for aggregate offered-load views).
func Merge(seqs ...[]sim.Time) []sim.Time {
	srcs := make([]sim.Cursor, len(seqs))
	for i, seq := range seqs {
		srcs[i] = sim.NewSliceCursor(seq)
	}
	return drain(merge(srcs))
}

// merged is a k-way merge of cursors, each with its pulled head.
type merged struct {
	srcs  []sim.Cursor
	heads []sim.Time
}

// merge returns the cursor over the sorted union of srcs, pulling each
// source's first entry now.
func merge(srcs []sim.Cursor) *merged {
	c := &merged{}
	for _, src := range srcs {
		if t, ok := src.Next(); ok {
			c.srcs = append(c.srcs, src)
			c.heads = append(c.heads, t)
		}
	}
	return c
}

// Next implements sim.Cursor.
func (c *merged) Next() (sim.Time, bool) {
	if len(c.srcs) == 0 {
		return 0, false
	}
	i := 0
	for j := 1; j < len(c.heads); j++ {
		if c.heads[j] < c.heads[i] {
			i = j
		}
	}
	t := c.heads[i]
	if next, ok := c.srcs[i].Next(); ok {
		c.heads[i] = next
	} else {
		last := len(c.srcs) - 1
		c.srcs[i], c.heads[i] = c.srcs[last], c.heads[last]
		c.srcs, c.heads = c.srcs[:last], c.heads[:last]
	}
	return t, true
}
