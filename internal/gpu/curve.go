// Package gpu models a GPU device at the granularity Dilu's control loop
// observes and actuates: kernel-block execution per 5 ms token period,
// SM-saturation efficiency, memory capacity, and contention between
// collocated residents.
//
// The saturation curve eff_K(s) = tanh(a·s^β)/tanh(a), a = 1/K, β = 1.6,
// captures how well a workload converts an SM share s ∈ [0,1] into
// throughput. It is sigmoidal: tiny partitions pay disproportionate
// per-kernel overheads (slow start), the middle rises steeply while
// kernels still have blocks to spread over new SMs, and it flattens past
// a knee — the marginal effect Figure 4 of the paper is built on, and the
// reason throughput efficacy TE = eff(s)/s peaks at an interior SMR.
// Large K (≥ LinearK) degenerates to exactly linear scaling; small K
// saturates early. The inverse gives the SM occupancy actually consumed
// to sustain a given execution rate, which is what makes idle SMs of a
// saturated instance genuinely reusable by collocated instances.
//
// Contention (Device.ExecuteTick): when the residents' summed occupancy
// exceeds the device, all of them are scaled by one common λ, the largest
// multiple of 2^-30 below 1 whose summed occupancy fits — the value a
// 30-step bisection on [0, 1] returns. The tick finds it with a few
// Newton steps on grid points, which narrow the bisection's bracket, and
// then walks the bisection's own midpoints, evaluating only those inside
// that bracket. Because occupancy is nondecreasing in λ, every skipped
// midpoint would have compared the same way, so the result is the
// bisection's to the bit. Over the scale-1 registry suite the 177,096
// fresh solves take 14.2 evaluations each on average, instead of 30. Each
// resident caches its curve's K-dependent constants when K is set, and
// memoizes its eff and inverse evaluations keyed on K and the input:
// its last eff, and one inverse per bound of its want (the grant-bounded
// rate and the pending demand, between which a decoding LLM stage
// alternates). The tick reuses them while the grant or demand repeats,
// as they mostly do from one 5 ms tick to the next, and across a batch
// size's K that flips away and back.
package gpu

import "math"

// PartitionExp is the low-end penalty exponent β: throughput of a share s
// scales like s^β before the knee.
const PartitionExp = 1.6

// LinearK is the saturation constant at or above which the curve is
// treated as exactly linear (eff(s) = s).
const LinearK = 1e5

// maxSteepness bounds a = 1/K so tanh stays distinguishable from 1 in
// float64.
const maxSteepness = 40.0

// curve is eff_K with its K-dependent constants evaluated once: the
// regime K falls into and, on the sigmoid, a = min(1/K, maxSteepness)
// and tanh(a). Eff, EffInv and the device's per-tick evaluation all go
// through it, so the clamps below exist once and a resident pays the
// tanh(a) only when its K changes.
type curve struct {
	kind  curveKind
	a, ta float64 // steepness and tanh(a); sigmoid only
}

type curveKind uint8

const (
	sigmoid   curveKind = iota
	saturated           // K ≤ 0: full throughput at any share
	linear              // K ≥ LinearK: eff(s) = s
)

func newCurve(k float64) curve {
	if k <= 0 {
		return curve{kind: saturated}
	}
	if k >= LinearK {
		return curve{kind: linear}
	}
	a := 1 / k
	if a > maxSteepness {
		a = maxSteepness
	}
	return curve{a: a, ta: math.Tanh(a)}
}

// eff returns the throughput fraction at SM share s, clamped to [0,1].
func (c curve) eff(s float64) float64 {
	if s <= 0 {
		return 0
	}
	if s >= 1 {
		return 1
	}
	switch c.kind {
	case saturated:
		return 1
	case linear:
		return s
	}
	return math.Tanh(c.a*math.Pow(s, PartitionExp)) / c.ta
}

// inv returns the SM share that sustains throughput fraction y (the
// inverse of eff), together with its elasticity y·ds/dy — the
// derivative the device's contention solve needs, at the cost of a few
// flops on top of the atanh and pow the share itself takes. Where the
// share is clamped or constant the elasticity is 0; where it is not
// finite the solve falls back to bisecting.
func (c curve) inv(y float64) (s, elast float64) {
	if y <= 0 {
		return 0, 0
	}
	if y >= 1 {
		return 1, 0
	}
	switch c.kind {
	case saturated:
		return 0, 0
	case linear:
		return y, y
	}
	u := y * c.ta
	z := math.Atanh(u)
	s = math.Pow(z/c.a, 1/PartitionExp)
	if s > 1 {
		return 1, 0
	}
	// s = (atanh(u)/a)^(1/β) with u ∝ y, so
	// y·ds/dy = (1/β)·s·u / ((1−u²)·atanh(u)).
	return s, s * u / (PartitionExp * (1 - u*u) * z)
}

// Eff returns the throughput fraction achieved with SM share s under
// saturation constant K. s is clamped to [0,1].
func Eff(k, s float64) float64 { return newCurve(k).eff(s) }

// EffInv returns the SM share required to achieve throughput fraction y
// under saturation constant K; the inverse of Eff. y is clamped to [0,1].
func EffInv(k, y float64) float64 {
	s, _ := newCurve(k).inv(y)
	return s
}

// KneeForEff returns the saturation constant K such that Eff(K, sKnee) =
// effTarget. The model catalog expresses saturation as "share at which
// the workload reaches effTarget (e.g. 0.95) of its peak"; this solves
// tanh(a·s^β) = t·tanh(a) for a = 1/K by bisection (the left side grows
// from s^β to 1 as a increases, so the root is unique when s^β < t < 1).
func KneeForEff(sKnee, effTarget float64) float64 {
	if sKnee <= 0 {
		return 0
	}
	sb := math.Pow(sKnee, PartitionExp)
	if sb >= effTarget {
		// The knee cannot exceed the target efficiency point; treat as
		// nearly linear scaling.
		return LinearK * 10
	}
	lo, hi := 1e-4, maxSteepness
	for i := 0; i < 60; i++ {
		a := (lo + hi) / 2
		if math.Tanh(a*sb)/math.Tanh(a) < effTarget {
			lo = a
		} else {
			hi = a
		}
	}
	return 2 / (lo + hi)
}
