package scaler

import (
	"testing"
	"testing/quick"

	"dilu/internal/sim"
)

// feed pushes a constant-RPS run of n samples and returns the cumulative
// delta the policy asked for, updating the instance count as it goes.
func feed(p Policy, rps float64, n, instances int, capRPS float64) (int, int) {
	deltas := 0
	for i := 0; i < n; i++ {
		d := p.Decide(sim.Time(i)*sim.Second, rps, instances, capRPS)
		instances += d
		deltas += d
	}
	return deltas, instances
}

func TestDiluLazyIgnoresShortBurst(t *testing.T) {
	p := NewDilu(DiluConfig{})
	// 10 seconds of 3× overload — shorter than φ_out=20 — must not
	// trigger scale-out (vertical scaling absorbs it).
	if d, _ := feed(p, 30, 10, 1, 10); d != 0 {
		t.Fatalf("short burst scaled out: %d", d)
	}
}

func TestDiluScalesOutOnSustainedOverload(t *testing.T) {
	p := NewDilu(DiluConfig{})
	d, n := feed(p, 30, 25, 1, 10)
	if d < 1 {
		t.Fatalf("sustained overload not scaled: delta=%d", d)
	}
	if n < 2 {
		t.Fatalf("instances = %d", n)
	}
}

func TestDiluScaleInIsLazier(t *testing.T) {
	p := NewDilu(DiluConfig{})
	// 25 quiet samples with 3 instances: under-count reaches 25 < φ_in+1.
	if d, _ := feed(p, 1, 25, 3, 10); d != 0 {
		t.Fatalf("scaled in too eagerly: %d", d)
	}
	// 10 more quiet samples push it over φ_in=30.
	if d, _ := feed(p, 1, 10, 3, 10); d != -1 {
		t.Fatalf("lazy scale-in missing: %d", d)
	}
}

func TestDiluRespectsMinimum(t *testing.T) {
	p := NewDilu(DiluConfig{})
	if _, n := feed(p, 0, 200, 1, 10); n != 1 {
		t.Fatalf("dropped below minimum: %d", n)
	}
}

func TestDiluZeroCapacityNoDecision(t *testing.T) {
	p := NewDilu(DiluConfig{})
	if d, _ := feed(p, 100, 50, 1, 0); d != 0 {
		t.Fatal("decisions without capacity knowledge")
	}
}

func TestEagerReactsFast(t *testing.T) {
	p := NewEager()
	d, _ := feed(p, 30, 3, 1, 10)
	if d < 1 {
		t.Fatalf("eager policy too slow: %d", d)
	}
}

func TestEagerChurnsOnFlappingLoad(t *testing.T) {
	// Alternating 12s-high/12s-low load: eager scales out and in
	// repeatedly while Dilu holds one instance.
	eager, dilu := NewEager(), NewDilu(DiluConfig{})
	churnE, churnD := 0, 0
	nE, nD := 1, 1
	for cycle := 0; cycle < 6; cycle++ {
		for i := 0; i < 12; i++ {
			if d := eager.Decide(0, 30, nE, 10); d != 0 {
				churnE++
				nE += d
			}
			if d := dilu.Decide(0, 30, nD, 10); d != 0 {
				churnD++
				nD += d
			}
		}
		for i := 0; i < 12; i++ {
			if d := eager.Decide(0, 1, nE, 10); d != 0 {
				churnE++
				nE += d
			}
			if d := dilu.Decide(0, 1, nD, 10); d != 0 {
				churnD++
				nD += d
			}
		}
	}
	if churnE <= churnD {
		t.Fatalf("eager churn %d should exceed Dilu churn %d", churnE, churnD)
	}
}

func TestPredictiveKeepAliveTTL(t *testing.T) {
	p := NewPredictive()
	if p.KeepAliveTTL() != 60*sim.Second {
		t.Fatalf("TTL = %v", p.KeepAliveTTL())
	}
	if NewDilu(DiluConfig{}).KeepAliveTTL() != 0 {
		t.Fatal("Dilu must not keep warm pools")
	}
	if NewEager().KeepAliveTTL() != 5*sim.Second {
		t.Fatal("eager grace period wrong")
	}
}

func TestPredictiveScalesOnWindow(t *testing.T) {
	p := NewPredictive()
	d, _ := feed(p, 30, 12, 1, 10)
	if d < 1 {
		t.Fatalf("predictive did not scale on sustained load: %d", d)
	}
}

func TestPredictivePrewarmAfterLearnedGap(t *testing.T) {
	p := NewPredictive()
	now := sim.Time(0)
	step := func(rps float64, n int, instances int) int {
		total := 0
		for i := 0; i < n; i++ {
			total += p.Decide(now, rps, instances, 10)
			now += sim.Second
		}
		return total
	}
	// Two bursts separated by a ~30s gap teach the period.
	step(25, 5, 2)
	step(0, 30, 2)
	step(25, 5, 2)
	step(0, 30, 2)
	// Third burst: prewarm should fire within the first few samples.
	got := step(25, 4, 2)
	if got < 1 {
		t.Fatalf("no prewarm on learned periodic burst: %d", got)
	}
}

func TestPolicyNames(t *testing.T) {
	if NewDilu(DiluConfig{}).Name() != "Dilu" ||
		NewEager().Name() != "FaST-GS+" ||
		NewPredictive().Name() != "INFless+" {
		t.Fatal("policy names wrong")
	}
}

// Property: instance count driven by any policy never falls below the
// minimum and deltas are in {-1, 0, +1}.
func TestPolicyDeltaBoundsProperty(t *testing.T) {
	f := func(loads []uint8, which uint8) bool {
		var p Policy
		switch which % 3 {
		case 0:
			p = NewDilu(DiluConfig{})
		case 1:
			p = NewEager()
		default:
			p = NewPredictive()
		}
		instances := 1
		for i, l := range loads {
			d := p.Decide(sim.Time(i)*sim.Second, float64(l), instances, 10)
			if d < -1 || d > 1 {
				return false
			}
			instances += d
			if instances < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// stubPolicy answers a fixed delta and records the instance count each
// Decide call sees.
type stubPolicy struct {
	delta int
	seen  []int
}

func (s *stubPolicy) Name() string               { return "stub" }
func (s *stubPolicy) KeepAliveTTL() sim.Duration { return 0 }
func (s *stubPolicy) Decide(_ sim.Time, _ float64, instances int, _ float64) int {
	s.seen = append(s.seen, instances)
	return s.delta
}

// decideRamp feeds p one sample a second from rps, holding the
// instance count at instances, and returns each step's answer.
func decideRamp(p Policy, rps []float64, instances int) []int {
	out := make([]int, len(rps))
	for i, r := range rps {
		out[i] = p.Decide(sim.Time(i)*sim.Second, r, instances, 10)
	}
	return out
}

func TestPrewarmAsksAheadOfRisingRamp(t *testing.T) {
	inner := &stubPolicy{}
	p := NewPrewarm(inner, 2*sim.Second)
	// At t=1 s the slope is 1 rps/s: 6 + 1·(2 s + 1 s) = 9 rps, ×1.3
	// headroom needs 2 instances of 10 rps against 1 running.
	got := decideRamp(p, []float64{5, 6}, 1)
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("answers %v, want [0 1]", got)
	}
	if inner.seen[0] != 1 || inner.seen[1] != 2 {
		t.Fatalf("inner saw %v, want [1 2]: the ask counts as an instance", inner.seen)
	}
	if p.Launches() != 1 || p.Name() != "stub" {
		t.Fatalf("launches %d name %q", p.Launches(), p.Name())
	}
}

func TestPrewarmLaunchWindowSuppressesSecondAsk(t *testing.T) {
	p := NewPrewarm(&stubPolicy{}, 2*sim.Second)
	// The t=1 s ask is on the way until t=3 s; at t=2 s it covers the
	// second instance still needed, and at t=3 s its window has ended.
	got := decideRamp(p, []float64{5, 6, 7, 8}, 1)
	want := []int{0, 1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("answers %v, want %v", got, want)
		}
	}
}

func TestPrewarmIgnoresFlatAndFallingLoad(t *testing.T) {
	for name, rps := range map[string][]float64{
		"flat":    {30, 30, 30, 30, 30, 30},
		"falling": {40, 38, 36, 34, 32, 30},
	} {
		inner := &stubPolicy{}
		p := NewPrewarm(inner, 2*sim.Second)
		for i, d := range decideRamp(p, rps, 1) {
			if d != 0 || inner.seen[i] != 1 {
				t.Fatalf("%s: step %d answered %d, inner saw %d", name, i, d, inner.seen[i])
			}
		}
	}
}

func TestPrewarmNetsAgainstInnerScaleIn(t *testing.T) {
	p := NewPrewarm(&stubPolicy{delta: -1}, 2*sim.Second)
	// The trend asks +1 at t=1 s while the inner policy scales in: a
	// launch and a teardown in the same second would pay a cold start
	// for nothing, so the answers net to 0.
	if got := decideRamp(p, []float64{5, 6}, 1); got[1] != 0 || p.Launches() != 1 {
		t.Fatalf("answers %v with %d launches, want 0 at t=1 s and 1 launch", got, p.Launches())
	}
}
