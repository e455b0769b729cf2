package gpu

import (
	"math"
	"math/rand"
	"testing"
)

// refEff and refEffInv are eff_K and its inverse written as plain
// functions of K, recomputing a = 1/K and tanh(a) on every call.
func refEff(k, s float64) float64 {
	if s <= 0 {
		return 0
	}
	if s >= 1 {
		return 1
	}
	if k <= 0 {
		return 1
	}
	if k >= LinearK {
		return s
	}
	a := 1 / k
	if a > maxSteepness {
		a = maxSteepness
	}
	return math.Tanh(a*math.Pow(s, PartitionExp)) / math.Tanh(a)
}

func refEffInv(k, y float64) float64 {
	if y <= 0 {
		return 0
	}
	if y >= 1 {
		return 1
	}
	if k <= 0 {
		return 0
	}
	if k >= LinearK {
		return y
	}
	a := 1 / k
	if a > maxSteepness {
		a = maxSteepness
	}
	s := math.Pow(math.Atanh(y*math.Tanh(a))/a, 1/PartitionExp)
	if s > 1 {
		return 1
	}
	return s
}

// refTick is one execution round with the waterfill as a plain 30-step
// bisection of the common scale on [0, 1]: the reference ExecuteTick and
// its solve must reproduce bit for bit.
type refTick struct {
	want, executed, usable []float64
	occ1, scale, occ       float64 // Σ occ at scale 1, the scale, Σ occ after
}

func runRefTick(c, slow float64, ks, pending, grants []float64) refTick {
	n := len(ks)
	rt := refTick{want: make([]float64, n), executed: make([]float64, n), usable: make([]float64, n)}
	for i := range ks {
		usable := c * refEff(ks[i], grants[i]/c)
		if slow > 1 {
			usable /= slow
		}
		w := math.Min(pending[i], usable)
		rt.want[i] = w
		rt.occ1 += refEffInv(ks[i], w/c)
	}
	rt.scale = 1
	if rt.occ1 > 1 {
		lo, hi := 0.0, 1.0
		for iter := 0; iter < 30; iter++ {
			mid := (lo + hi) / 2
			var occ float64
			for i := range ks {
				occ += refEffInv(ks[i], mid*rt.want[i]/c)
			}
			if occ > 1 {
				hi = mid
			} else {
				lo = mid
			}
		}
		rt.scale = lo
	}
	for i := range ks {
		rt.usable[i] = c * refEff(ks[i], grants[i]/c) * rt.scale
		if slow > 1 {
			rt.usable[i] /= slow
		}
		x := math.Min(rt.want[i]*rt.scale, pending[i])
		rt.executed[i] = x
		rt.occ += refEffInv(ks[i], x/c)
	}
	return rt
}

// randomK draws a saturation constant from every regime of the curve:
// saturated (K ≤ 0), exactly linear (K ≥ LinearK), steep enough that
// tanh(a) rounds to 1, the catalog's knee-derived constants, and
// log-uniform in between.
func randomK(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return -rng.Float64() * float64(rng.Intn(2))
	case 1:
		return LinearK * (1 + 10*rng.Float64()*float64(rng.Intn(2)))
	case 2:
		k := 1 / (20 + 100*rng.Float64()) // a ≥ 20
		if math.Tanh(math.Min(1/k, maxSteepness)) != 1 {
			panic("steep K must round tanh(a) to 1")
		}
		return k
	case 3:
		return KneeForEff(0.03+0.9*rng.Float64(), 0.95)
	default:
		return math.Exp(math.Log(1e-3) + rng.Float64()*math.Log(1e8))
	}
}

// randomMix draws 2–8 residents whose wants are 0, exactly Capacity, or
// random, on a device that is sometimes a straggler (slow > 1).
func randomMix(rng *rand.Rand) (c, slow float64, ks, pending, grants []float64) {
	c = DefaultCapacityPerTick
	if rng.Intn(4) == 0 {
		c = 1000 + 9000*rng.Float64()
	}
	if rng.Intn(4) == 0 {
		slow = 1 + 3*rng.Float64()
	}
	n := 2 + rng.Intn(7)
	for i := 0; i < n; i++ {
		ks = append(ks, randomK(rng))
		var p, g float64
		switch rng.Intn(5) {
		case 0: // want 0
			if rng.Intn(2) == 0 {
				g = c * rng.Float64()
			} else {
				p = c * rng.Float64()
			}
		case 1: // want = Capacity unless straggling
			p, g = 10*c, c*(1+rng.Float64()*float64(rng.Intn(2)))
		case 2: // grant-bound
			p, g = 1e9, 1.2*c*rng.Float64()
		default: // either bound
			p, g = 1.5*c*rng.Float64(), 1.2*c*rng.Float64()
		}
		pending = append(pending, p)
		grants = append(grants, g)
	}
	return
}

// The root solve must return the reference bisection's scale bit for bit,
// and ExecuteTick every output the reference tick produces, over random
// contended mixes from all curve regimes.
func TestContendedScaleMatchesBisection(t *testing.T) {
	const mixes = 100_000
	rng := rand.New(rand.NewSource(20250301))
	var contended, tries int
	for contended < mixes {
		if tries++; tries > 20*mixes {
			t.Fatalf("only %d contended mixes in %d tries", contended, tries)
		}
		c, slow, ks, pending, grants := randomMix(rng)
		ref := runRefTick(c, slow, ks, pending, grants)

		d := &Device{ID: "g", Capacity: c, MemoryMB: DefaultMemoryMB}
		d.SetSlowdown(slow)
		for i := range ks {
			r, _ := d.Attach("r", 0)
			r.SetSatK(ks[i])
			r.AddWork(pending[i])
			r.SetGrant(grants[i])
		}
		if ref.occ1 > 1 {
			contended++
			tick := make([]tickScratch, len(ks))
			for i := range tick {
				tick[i].want = ref.want[i]
			}
			occ, elast := d.occupancyAt(tick, 1)
			if math.Float64bits(occ) != math.Float64bits(ref.occ1) {
				t.Fatalf("mix %d: occ(1) = %v, reference %v", tries, occ, ref.occ1)
			}
			scale, occAfter := d.contendedScale(tick, occ, elast)
			if math.Float64bits(scale) != math.Float64bits(ref.scale) {
				t.Fatalf("mix %d (K %v, want %v, C %v, slow %v): scale %v (%#x), bisection %v (%#x)",
					tries, ks, ref.want, c, slow, scale, math.Float64bits(scale), ref.scale, math.Float64bits(ref.scale))
			}
			if math.Float64bits(occAfter) != math.Float64bits(ref.occ) {
				t.Fatalf("mix %d: occupancy at the scale %v, reference %v", tries, occAfter, ref.occ)
			}
		}

		d.ExecuteTick()
		for i, r := range d.Residents() {
			if math.Float64bits(r.ExecutedLast()) != math.Float64bits(ref.executed[i]) ||
				math.Float64bits(r.usableLast) != math.Float64bits(ref.usable[i]) ||
				math.Float64bits(r.Pending()) != math.Float64bits(math.Max(pending[i], 0)-ref.executed[i]) {
				t.Fatalf("mix %d resident %d: executed %v usable %v, reference %v %v",
					tries, i, r.ExecutedLast(), r.usableLast, ref.executed[i], ref.usable[i])
			}
		}
		if math.Float64bits(d.LastOccupancy()) != math.Float64bits(ref.occ) {
			t.Fatalf("mix %d: occupancy %v, reference %v", tries, d.LastOccupancy(), ref.occ)
		}
		if ref.occ1 > 1 && d.LastOccupancy() > 1 {
			t.Fatalf("mix %d: Σ occ = %v > 1 after the solve", tries, d.LastOccupancy())
		}
	}
	t.Logf("%d contended of %d mixes", contended, tries)
}
