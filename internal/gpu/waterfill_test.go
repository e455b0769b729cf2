package gpu

import (
	"math"
	"testing"
	"testing/quick"
)

// TestWaterfillProportionalFairness: under contention the common scale
// factor preserves the ratio of executed work between residents.
func TestWaterfillProportionalFairness(t *testing.T) {
	d := NewDevice("g")
	a, _ := d.Attach("a", 1)
	b, _ := d.Attach("b", 1)
	a.SetSatK(LinearK)
	b.SetSatK(LinearK)
	a.AddWork(10 * d.Capacity)
	b.AddWork(10 * d.Capacity)
	a.SetGrant(0.8 * d.Capacity)
	b.SetGrant(0.4 * d.Capacity)
	d.ExecuteTick()
	// Wants are 0.8C and 0.4C (sum 1.2 > 1): both scale by the same λ.
	ratio := a.ExecutedLast() / b.ExecutedLast()
	if math.Abs(ratio-2.0) > 0.02 {
		t.Fatalf("contention broke proportionality: ratio %v", ratio)
	}
	if occ := d.LastOccupancy(); math.Abs(occ-1.0) > 0.01 {
		t.Fatalf("occupancy %v, want saturated", occ)
	}
}

// TestWaterfillSparesUncontendedTick: if total demand fits, no resident
// is scaled.
func TestWaterfillSparesUncontendedTick(t *testing.T) {
	d := NewDevice("g")
	a, _ := d.Attach("a", 1)
	b, _ := d.Attach("b", 1)
	a.SetSatK(LinearK)
	b.SetSatK(LinearK)
	a.AddWork(0.3 * d.Capacity)
	b.AddWork(0.3 * d.Capacity)
	a.SetGrant(0.5 * d.Capacity)
	b.SetGrant(0.5 * d.Capacity)
	d.ExecuteTick()
	if a.ExecutedLast() != 0.3*d.Capacity || b.ExecutedLast() != 0.3*d.Capacity {
		t.Fatalf("uncontended demand throttled: %v/%v", a.ExecutedLast(), b.ExecutedLast())
	}
}

// TestCompletionFractionBounds: the sub-tick completion estimate stays in
// [0,1] and equals 1 while work remains.
func TestCompletionFractionBounds(t *testing.T) {
	d := NewDevice("g")
	r, _ := d.Attach("a", 1)
	r.SetSatK(LinearK)
	r.AddWork(0.25 * d.Capacity)
	r.SetGrant(d.Capacity)
	d.ExecuteTick()
	f := r.CompletionFraction()
	if math.Abs(f-0.25) > 0.01 {
		t.Fatalf("fraction = %v, want ~0.25", f)
	}
	r.AddWork(10 * d.Capacity)
	d.ExecuteTick()
	if r.CompletionFraction() != 1 {
		t.Fatal("in-progress work must report fraction 1")
	}
}

// Property: executed work is monotone in grant (more tokens never yield
// less progress), all else equal.
func TestExecutedMonotoneInGrantProperty(t *testing.T) {
	f := func(g1, g2 uint16, knee uint8) bool {
		lo, hi := float64(g1), float64(g2)
		if lo > hi {
			lo, hi = hi, lo
		}
		run := func(grant float64) float64 {
			d := NewDevice("g")
			r, _ := d.Attach("a", 1)
			r.SetSatK(KneeForEff(0.05+float64(knee%90)/100, 0.95))
			r.AddWork(1e9)
			r.SetGrant(grant)
			d.ExecuteTick()
			return r.ExecutedLast()
		}
		return run(hi) >= run(lo)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: with equal saturation and equal grants, contention splits
// work equally regardless of demand magnitude.
func TestContentionSymmetryProperty(t *testing.T) {
	f := func(knee uint8) bool {
		d := NewDevice("g")
		a, _ := d.Attach("a", 1)
		b, _ := d.Attach("b", 1)
		k := KneeForEff(0.1+float64(knee%80)/100, 0.95)
		a.SetSatK(k)
		b.SetSatK(k)
		a.AddWork(1e9)
		b.AddWork(1e9)
		a.SetGrant(d.Capacity)
		b.SetGrant(d.Capacity)
		d.ExecuteTick()
		return math.Abs(a.ExecutedLast()-b.ExecutedLast()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
