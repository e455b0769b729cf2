package workload

import (
	"math"
	"slices"
	"testing"

	"dilu/internal/sim"
)

func TestDiurnalShape(t *testing.T) {
	d := Diurnal{TroughRPS: 2, DayRPS: 40, PeakBoost: 0.5, Period: 240 * sim.Second}
	arr := d.Generate(sim.NewRNG(11), 240*sim.Second)
	if !sortedTimes(arr) {
		t.Fatal("not sorted")
	}
	// Count arrivals in the trough ([0, 60s)) vs the plateau ([90s, 160s)).
	var trough, day float64
	for _, a := range arr {
		switch {
		case a < 60*sim.Second:
			trough++
		case a >= 90*sim.Second && a < 160*sim.Second:
			day++
		}
	}
	troughRate := trough / 60
	dayRate := day / 70
	if dayRate < 5*troughRate {
		t.Fatalf("day rate %.1f not well above trough rate %.1f", dayRate, troughRate)
	}
	if math.Abs(dayRate-40) > 10 {
		t.Fatalf("plateau rate %.1f, want ~40", dayRate)
	}
}

func TestDiurnalDefaultsAndZero(t *testing.T) {
	if got := (Diurnal{}).Generate(sim.NewRNG(1), sim.Minute); got != nil {
		t.Fatal("zero rates must generate nothing")
	}
	// Zero period/boost take defaults without panicking.
	arr := Diurnal{TroughRPS: 1, DayRPS: 10}.Generate(sim.NewRNG(2), 300*sim.Second)
	if len(arr) == 0 {
		t.Fatal("no arrivals with defaults")
	}
}

func TestParetoMeanRateAndTail(t *testing.T) {
	p := Pareto{RPS: 20, Alpha: 1.5}
	arr := p.Generate(sim.NewRNG(5), 600*sim.Second)
	if !sortedTimes(arr) {
		t.Fatal("not sorted")
	}
	// Heavy tails converge slowly; accept a loose band around the target.
	rate := MeanRPS(arr, 600*sim.Second)
	if rate < 8 || rate > 40 {
		t.Fatalf("mean rate %.1f, want roughly 20", rate)
	}
	// Heavy-tailed gaps: the largest gap dwarfs the median gap by far
	// more than an exponential process would allow.
	var gaps []float64
	prev := sim.Time(0)
	for _, a := range arr {
		gaps = append(gaps, (a - prev).Seconds())
		prev = a
	}
	slices.Sort(gaps)
	median := gaps[len(gaps)/2]
	max := gaps[len(gaps)-1]
	if max < 50*median {
		t.Fatalf("max/median gap = %.1f, want heavy tail (>50)", max/median)
	}
}

func TestParetoClampsAlpha(t *testing.T) {
	if got := (Pareto{RPS: 0}).Generate(sim.NewRNG(1), sim.Minute); got != nil {
		t.Fatal("zero RPS must be empty")
	}
	// α ≤ 1 clamps instead of dividing by zero.
	arr := Pareto{RPS: 10, Alpha: 0.5}.Generate(sim.NewRNG(3), sim.Minute)
	if !sortedTimes(arr) {
		t.Fatal("not sorted")
	}
}

func TestTenantMixWeights(t *testing.T) {
	m := TenantMix{Tenants: 4, TotalRPS: 40, Skew: 1}
	w := m.Weights()
	if len(w) != 4 {
		t.Fatalf("weights = %v", w)
	}
	var sum float64
	for i, v := range w {
		sum += v
		if i > 0 && v >= w[i-1] {
			t.Fatalf("weights not decreasing: %v", w)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("weights sum to %v", sum)
	}
	// Zipf s=1 over 4 tenants: head weight = 1/(1+1/2+1/3+1/4) = 0.48.
	if math.Abs(w[0]-0.48) > 0.001 {
		t.Fatalf("head weight %v, want 0.48", w[0])
	}
	// Skew 0 is uniform.
	u := TenantMix{Tenants: 4, TotalRPS: 40}.Weights()
	for _, v := range u {
		if math.Abs(v-0.25) > 1e-12 {
			t.Fatalf("uniform weights = %v", u)
		}
	}
	if (TenantMix{}).Weights() != nil {
		t.Fatal("zero tenants must have no weights")
	}
}

func TestTenantMixSplitSkewed(t *testing.T) {
	m := TenantMix{Tenants: 6, TotalRPS: 60, Skew: 1.2}
	split := m.Split(sim.NewRNG(7), 300*sim.Second)
	if len(split) != 6 {
		t.Fatalf("split = %d tenants", len(split))
	}
	head := len(split[0].Times)
	tail := len(split[5].Times)
	if head <= 3*tail {
		t.Fatalf("no popularity skew: head %d vs tail %d", head, tail)
	}
	for i, ta := range split {
		if !sortedTimes(ta.Times) {
			t.Fatalf("tenant %d not sorted", i)
		}
		if ta.Tenant == "" || ta.Weight <= 0 {
			t.Fatalf("tenant %d metadata: %+v", i, ta)
		}
	}
	// Determinism: same seed, same split.
	again := m.Split(sim.NewRNG(7), 300*sim.Second)
	for i := range split {
		if !slices.Equal(split[i].Times, again[i].Times) {
			t.Fatalf("tenant %d split not deterministic", i)
		}
	}
}

func TestTenantMixCustomShapeAndMerge(t *testing.T) {
	m := TenantMix{
		Tenants: 3, TotalRPS: 30, Skew: 1,
		Shape: func(i int, rps float64) Arrivals {
			if i == 0 {
				return Bursty{BaseRPS: rps, Scale: 3}
			}
			return Poisson{RPS: rps}
		},
	}
	merged := m.Generate(sim.NewRNG(9), 120*sim.Second)
	if !sortedTimes(merged) {
		t.Fatal("merged mix not sorted")
	}
	split := m.Split(sim.NewRNG(9), 120*sim.Second)
	var n int
	for _, ta := range split {
		n += len(ta.Times)
	}
	if n != len(merged) {
		t.Fatalf("merge lost events: %d vs %d", len(merged), n)
	}
}

// TestBurstyReplayIdentical is the regression test for the monotone rate
// cursor: replaying the same generator (same seed, same horizon) twice
// must produce identical output — the cursor must rewind, not resume
// past the last burst window of the previous run.
func TestBurstyReplayIdentical(t *testing.T) {
	b := Bursty{BaseRPS: 10, Scale: 5, BurstDur: 10 * sim.Second, Quiet: 30 * sim.Second}
	first := b.Generate(sim.NewRNG(42), 200*sim.Second)
	second := b.Generate(sim.NewRNG(42), 200*sim.Second)
	if !slices.Equal(first, second) {
		t.Fatalf("replay diverged: %d vs %d arrivals", len(first), len(second))
	}
}

// TestBurstyInterleavedCursorsMatchSequential is the reuse hazard for a
// rate with a monotone window index: two live cursors of one Bursty value
// are pulled alternately, as two deployments on one engine would be, and
// must each yield exactly what a sequential drain of the same seed does.
// A window index shared between the cursors would let one skip the
// other's bursts.
func TestBurstyInterleavedCursorsMatchSequential(t *testing.T) {
	b := Bursty{BaseRPS: 10, Scale: 6, BurstDur: 20 * sim.Second, Quiet: 30 * sim.Second}
	const dur = 300 * sim.Second
	wantA := b.Generate(sim.NewRNG(1), dur)
	wantB := b.Generate(sim.NewRNG(2), dur)
	ca, cb := b.Stream(sim.NewRNG(1), dur), b.Stream(sim.NewRNG(2), dur)
	var gotA, gotB []sim.Time
	for okA, okB := true, true; okA || okB; {
		var at sim.Time
		if at, okA = ca.Next(); okA {
			gotA = append(gotA, at)
		}
		// B runs three pulls per A pull so the cursors sit in
		// different burst windows most of the time.
		for i := 0; i < 3 && okB; i++ {
			if at, okB = cb.Next(); okB {
				gotB = append(gotB, at)
			}
		}
	}
	if !slices.Equal(gotA, wantA) || !slices.Equal(gotB, wantB) {
		t.Fatalf("interleaved cursors diverged: A %d vs %d, B %d vs %d arrivals",
			len(gotA), len(wantA), len(gotB), len(wantB))
	}
}
