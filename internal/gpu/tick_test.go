package gpu

import (
	"math"
	"math/rand"
	"testing"
)

// tickMix attaches one resident per K, each with unbounded demand and a
// grant of the given share of Capacity, and returns the device.
func tickMix(slow, grant float64, ks ...float64) *Device {
	d := NewDevice("g")
	d.SetSlowdown(slow)
	for _, k := range ks {
		r, _ := d.Attach("r", 1)
		r.SetSatK(k)
		r.AddWork(1e18)
		r.SetGrant(grant * d.Capacity)
	}
	return d
}

// SetSatK between two ticks must change the next tick's execution to
// exactly what a resident that always had the new K executes: a curve
// cached from the old K would not.
func TestSetSatKTakesEffectNextTick(t *testing.T) {
	const k1, k2 = 0.08, 2.0
	d := NewDevice("g")
	r, _ := d.Attach("a", 1)
	r.SetSatK(k1)
	r.AddWork(1e9)
	r.SetGrant(0.4 * d.Capacity)
	d.ExecuteTick()
	before := r.ExecutedLast()

	r.SetSatK(k2)
	if r.SatK() != k2 {
		t.Fatalf("SatK() = %v after SetSatK(%v)", r.SatK(), k2)
	}
	d.ExecuteTick()

	fresh := NewDevice("g")
	f, _ := fresh.Attach("a", 1)
	f.SetSatK(k2)
	f.AddWork(1e9)
	f.SetGrant(0.4 * fresh.Capacity)
	fresh.ExecuteTick()

	if r.ExecutedLast() == before {
		t.Fatalf("executed %v blocks under K=%v and K=%v alike", before, k1, k2)
	}
	if math.Float64bits(r.ExecutedLast()) != math.Float64bits(f.ExecutedLast()) {
		t.Fatalf("after SetSatK(%v): executed %v, want %v", k2, r.ExecutedLast(), f.ExecutedLast())
	}
}

// A contended tick reuses the previous tick's scale only while its
// inputs repeat. One device goes through a repeat and then each kind of
// input change; after every step all outputs must equal the reference
// tick's (runRefTick) for the device's state at that step.
func TestContendedTickFollowsInputs(t *testing.T) {
	const work = 0.8 * DefaultCapacityPerTick // demand-bound, so wants repeat
	// The last resident has Attach's default K = 1, so the one that
	// replaces it below is indistinguishable from it.
	d := tickMix(0, 1, KneeForEff(0.6, 0.95), KneeForEff(0.8, 0.95), 1)
	refill := func(d *Device) {
		for _, r := range d.Residents() {
			r.ClearWork()
			r.AddWork(work)
		}
	}
	steps := []struct {
		name   string
		change func(d *Device)
	}{
		{"first", refill},
		{"repeat", refill},
		{"SetSatK", func(d *Device) { refill(d); d.Residents()[1].SetSatK(5) }},
		{"Detach", func(d *Device) { refill(d); d.Detach(d.Residents()[2]) }},
		{"Attach", func(d *Device) {
			refill(d)
			r, _ := d.Attach("new", 1)
			r.AddWork(work)
			r.SetGrant(d.Capacity)
		}},
		{"Capacity", func(d *Device) { refill(d); d.Capacity *= 1.25 }},
		{"demand", func(d *Device) {
			refill(d)
			d.Residents()[0].ClearWork()
			d.Residents()[0].AddWork(0.7 * work)
		}},
	}
	for _, st := range steps {
		st.change(d)
		var ks, pending, grants []float64
		for _, r := range d.Residents() {
			ks = append(ks, r.SatK())
			pending = append(pending, r.Pending())
			grants = append(grants, r.Grant())
		}
		ref := runRefTick(d.Capacity, d.slow, ks, pending, grants)
		if ref.occ1 <= 1 {
			t.Fatalf("%s: not contended", st.name)
		}
		d.ExecuteTick()
		for i, r := range d.Residents() {
			if math.Float64bits(r.ExecutedLast()) != math.Float64bits(ref.executed[i]) {
				t.Fatalf("%s: resident %d executed %v, reference %v", st.name, i, r.ExecutedLast(), ref.executed[i])
			}
		}
		if math.Float64bits(d.LastOccupancy()) != math.Float64bits(ref.occ) {
			t.Fatalf("%s: occupancy %v, reference %v", st.name, d.LastOccupancy(), ref.occ)
		}
	}
}

// A decoding resident's want alternates between its pending demand and
// its grant-bounded rate while its batch size flips K between two values.
// Every tick must reproduce the reference tick (runRefTick) bit for bit,
// alone on the device and contended by a grant-bound neighbour: the inv
// memo entry a tick reads must match both its bound and its K.
func TestDecodeTickFollowsBoundAndK(t *testing.T) {
	batchK := [2]float64{KneeForEff(0.5, 0.95), KneeForEff(0.8, 0.95)}
	demands := [2]float64{0.1, 0.25} // shares of Capacity, below the grant
	const grant = 0.6
	for _, contended := range []bool{false, true} {
		d := NewDevice("g")
		r, _ := d.Attach("decode", 1)
		r.SetGrant(grant * d.Capacity)
		if contended {
			n, _ := d.Attach("neighbour", 1)
			n.SetSatK(KneeForEff(0.6, 0.95))
			n.AddWork(1e18)
			n.SetGrant(d.Capacity)
		}
		// K, the bound and the demand are drawn afresh each tick, so
		// each memo entry is met with its input and its K repeated,
		// changed, or changed and then restored.
		rng := rand.New(rand.NewSource(24))
		for i := 0; i < 256; i++ {
			r.SetSatK(batchK[rng.Intn(2)])
			r.ClearWork()
			if rng.Intn(2) == 0 {
				r.AddWork(demands[rng.Intn(2)] * d.Capacity)
			} else {
				r.AddWork(1e18)
			}
			var ks, pending, grants []float64
			for _, res := range d.Residents() {
				ks = append(ks, res.SatK())
				pending = append(pending, res.Pending())
				grants = append(grants, res.Grant())
			}
			ref := runRefTick(d.Capacity, d.slow, ks, pending, grants)
			if (ref.occ1 > 1) != contended {
				t.Fatalf("contended %v tick %d: reference occupancy %v", contended, i, ref.occ1)
			}
			d.ExecuteTick()
			for j, res := range d.Residents() {
				if math.Float64bits(res.ExecutedLast()) != math.Float64bits(ref.executed[j]) ||
					math.Float64bits(res.usableLast) != math.Float64bits(ref.usable[j]) {
					t.Fatalf("contended %v tick %d resident %d: executed %v usable %v, reference %v %v",
						contended, i, j, res.ExecutedLast(), res.usableLast, ref.executed[j], ref.usable[j])
				}
			}
			if math.Float64bits(d.LastOccupancy()) != math.Float64bits(ref.occ) {
				t.Fatalf("contended %v tick %d: occupancy %v, reference %v", contended, i, d.LastOccupancy(), ref.occ)
			}
		}
	}
}

// A contended tick runs on the device's reused scratch: no allocation.
// The first resident's grant alternates, so every tick solves afresh.
func TestExecuteTickAllocatesNothing(t *testing.T) {
	d := tickMix(0, 1, KneeForEff(0.6, 0.95), KneeForEff(0.8, 0.95), LinearK)
	r0 := d.Residents()[0]
	grants := [2]float64{d.Capacity, 0.9 * d.Capacity}
	i := 0
	tick := func() {
		r0.SetGrant(grants[i&1])
		i++
		d.ExecuteTick()
	}
	for range grants {
		if tick(); d.LastOccupancy() < 0.99 {
			t.Fatalf("grant %v: not contended, occupancy %v", r0.Grant(), d.LastOccupancy())
		}
	}
	if n := testing.AllocsPerRun(100, tick); n != 0 {
		t.Fatalf("contended ExecuteTick allocates %v times", n)
	}
}

// BenchmarkExecuteTick times one execution round: a lone resident, two
// and four contending ones, and a contended straggler. The first
// resident's grant alternates between two values, so every tick
// evaluates its curve and solves the contention afresh; the others
// repeat, as most residents do from one tick to the next. In the
// decode case a lone resident's want flips between its demand and its
// grant every tick, and its K between two batch sizes' with it, as a
// decoding LLM stage's do.
func BenchmarkExecuteTick(b *testing.B) {
	b.Run("decode", func(b *testing.B) {
		d := tickMix(0, 0.6, KneeForEff(0.5, 0.95))
		r := d.Residents()[0]
		ks := [2]float64{KneeForEff(0.5, 0.95), KneeForEff(0.8, 0.95)}
		demands := [2]float64{0.1 * d.Capacity, 1e18}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.SetSatK(ks[i&1])
			r.ClearWork()
			r.AddWork(demands[i&1])
			d.ExecuteTick()
		}
	})
	cases := []struct {
		name string
		d    *Device
	}{
		{"solo", tickMix(0, 0.6, KneeForEff(0.5, 0.95))},
		{"contended2", tickMix(0, 1, KneeForEff(0.6, 0.95), KneeForEff(0.8, 0.95))},
		{"contended4", tickMix(0, 1, KneeForEff(0.3, 0.95), KneeForEff(0.5, 0.95), KneeForEff(0.7, 0.95), LinearK)},
		{"straggler", tickMix(1.25, 1, KneeForEff(0.6, 0.95), KneeForEff(0.8, 0.95), LinearK)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			c.d.ExecuteTick()
			// Uncontended, every resident runs its full grant.
			var full float64
			for _, r := range c.d.Residents() {
				full += c.d.Capacity * Eff(r.SatK(), r.Grant()/c.d.Capacity) / c.d.Slowdown()
			}
			if contended := c.d.LastExecuted() < full; contended != (c.name != "solo") {
				b.Fatalf("executed %v of %v: contention is not what the case name says", c.d.LastExecuted(), full)
			}
			r0 := c.d.Residents()[0]
			grants := [2]float64{r0.Grant(), 0.9 * r0.Grant()}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r0.SetGrant(grants[i&1])
				c.d.ExecuteTick()
			}
		})
	}
}

// SetSatK with an unchanged K is a no-op: a device whose residents get
// SetSatK(sameK) before every tick must execute bit for bit like one
// whose K was set once, through repeated, changed and uncontended
// demands. A real change of K must still reach the next tick.
func TestSetSatKSameKeepsTick(t *testing.T) {
	ks := []float64{KneeForEff(0.6, 0.95), KneeForEff(0.8, 0.95), LinearK}
	every, once := tickMix(0, 1, ks...), tickMix(0, 1, ks...)
	// Per-tick demand as a share of Capacity per resident: repeats let
	// the contended solve be reused, changes force a fresh one, and the
	// small demands drain within the tick (CompletionFraction < 1).
	demand := [][3]float64{
		{0.8, 0.8, 0.8}, {0.8, 0.8, 0.8}, {0.8, 0.8, 0.8},
		{0.9, 0.5, 0.8}, {0.9, 0.5, 0.8}, {0.05, 0.05, 0.05},
		{0.8, 0.8, 0.8}, {1.2, 0.3, 0.6}, {1.2, 0.3, 0.6},
	}
	contended, drained := 0, 0
	step := func(i int, change bool) {
		for _, d := range []*Device{every, once} {
			for j, r := range d.Residents() {
				r.ClearWork()
				r.AddWork(demand[i%len(demand)][j] * d.Capacity)
			}
		}
		for j, r := range every.Residents() {
			k := ks[j]
			if change && j == 1 {
				k = 5
			}
			r.SetSatK(k)
		}
		every.ExecuteTick()
		once.ExecuteTick()
	}
	same := func() bool {
		if math.Float64bits(every.LastOccupancy()) != math.Float64bits(once.LastOccupancy()) {
			return false
		}
		for j, r := range every.Residents() {
			o := once.Residents()[j]
			if math.Float64bits(r.ExecutedLast()) != math.Float64bits(o.ExecutedLast()) ||
				math.Float64bits(r.CompletionFraction()) != math.Float64bits(o.CompletionFraction()) {
				return false
			}
		}
		return true
	}
	for i := 0; i < 3*len(demand); i++ {
		step(i, false)
		if !same() {
			t.Fatalf("tick %d: SetSatK(sameK) changed the tick's outputs", i)
		}
		if every.LastOccupancy() > 0.99 {
			contended++
		}
		if every.Residents()[0].CompletionFraction() < 1 {
			drained++
		}
	}
	if contended < len(demand) || drained == 0 {
		t.Fatalf("%d contended and %d drained ticks: the demands miss a case", contended, drained)
	}
	// Repeat the last tick's demand, so only the solved-tick
	// invalidation can make the change show.
	last := 3*len(demand) - 1
	step(last, true)
	if same() {
		t.Fatalf("SetSatK(5) left the next tick unchanged")
	}
}
