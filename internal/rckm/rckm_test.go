package rckm

import (
	"math"
	"testing"
	"testing/quick"

	"dilu/internal/gpu"
	"dilu/internal/sim"
)

func newHarness(policy Policy) (*gpu.Device, *Manager) {
	dev := gpu.NewDevice("g0")
	m := NewManager(dev, policy, Config{})
	return dev, m
}

func addClient(t *testing.T, dev *gpu.Device, m *Manager, id string, slo bool, req, lim float64) *Client {
	t.Helper()
	res, err := dev.Attach(id, 1024)
	if err != nil {
		t.Fatal(err)
	}
	res.SetSatK(1e6) // linear unless a test overrides
	c := &Client{ID: id, Res: res, SLOSensitive: slo, Request: req, Limit: lim}
	m.Register(c)
	return c
}

func tick(dev *gpu.Device, m *Manager, n int) {
	for i := 0; i < n; i++ {
		m.Issue(0)
		dev.ExecuteTick()
	}
}

func TestSingleTrainingGetsLimitNone(t *testing.T) {
	dev, m := newHarness(Dilu{})
	c := addClient(t, dev, m, "train", false, 0.4, 0.65)
	c.Res.AddWork(1e9)
	tick(dev, m, 3)
	if m.State() != StateNone {
		t.Fatalf("state = %v, want NONE", m.State())
	}
	want := m.Config().MaxTokens * 0.65
	if math.Abs(c.LastIssued()-want) > 1 {
		t.Fatalf("issued = %v, want %v", c.LastIssued(), want)
	}
}

func TestEmergencyScaleUpAndCollateralScaleDown(t *testing.T) {
	dev, m := newHarness(Dilu{})
	inf := addClient(t, dev, m, "inf", true, 0.3, 0.6)
	train := addClient(t, dev, m, "train", false, 0.4, 0.8)
	inf.Res.AddWork(1e9)
	train.Res.AddWork(1e9)
	tick(dev, m, 4) // fill rate windows; both busy → CONTENTION
	if m.State() != StateContention {
		t.Fatalf("state = %v, want CONTENTION", m.State())
	}
	// Report an inflated KLC on the inference client.
	inf.SeedKLC(1e-6)
	inf.ObserveIteration(sim.FromSeconds(2e-2), 1e4) // 2e-6 s/blk = 2× min
	trainBefore := train.LastIssued()
	tick(dev, m, 1)
	if m.State() != StateEmergency {
		t.Fatalf("state = %v, want EMERGENCY", m.State())
	}
	wantInf := m.Config().MaxTokens * inf.Limit
	if math.Abs(inf.LastIssued()-wantInf) > 1 {
		t.Fatalf("inference issued %v, want limit %v", inf.LastIssued(), wantInf)
	}
	if train.LastIssued() >= trainBefore {
		t.Fatalf("training not scaled down: %v >= %v", train.LastIssued(), trainBefore)
	}
	// ΔT=1 → divisor 1? here ΔT=1.0 exactly: issue = min(req, last)/1
	maxTrain := m.Config().MaxTokens * train.Request
	if train.LastIssued() > maxTrain+1 {
		t.Fatalf("training issued %v above request cap %v", train.LastIssued(), maxTrain)
	}
}

func TestIdleInferenceScalesDownToRequest(t *testing.T) {
	dev, m := newHarness(Dilu{})
	inf := addClient(t, dev, m, "inf", true, 0.3, 0.6)
	train := addClient(t, dev, m, "train", false, 0.4, 0.8)
	train.Res.AddWork(1e9)
	// Inference has no demand at all → its window stays zero.
	tick(dev, m, 6)
	if m.State() != StateRecovery {
		t.Fatalf("state = %v, want RECOVERY", m.State())
	}
	want := m.Config().MaxTokens * inf.Request
	if math.Abs(inf.LastIssued()-want) > 1 {
		t.Fatalf("idle inference issued %v, want request %v", inf.LastIssued(), want)
	}
	// Training should climb toward limit in RECOVERY.
	tick(dev, m, 20)
	wantTrain := m.Config().MaxTokens * train.Limit
	if math.Abs(train.LastIssued()-wantTrain) > 1 {
		t.Fatalf("training issued %v, want limit %v", train.LastIssued(), wantTrain)
	}
}

func TestInferenceGrowsWhenOthersIdle(t *testing.T) {
	dev, m := newHarness(Dilu{})
	inf := addClient(t, dev, m, "inf", true, 0.3, 0.6)
	train := addClient(t, dev, m, "train", false, 0.4, 0.8)
	_ = train // no demand: training idle (e.g. gradient sync)
	inf.Res.AddWork(1e9)
	tick(dev, m, 1)
	first := inf.LastIssued()
	tick(dev, m, 10)
	if inf.LastIssued() <= first {
		t.Fatalf("inference should grow while others idle: %v -> %v", first, inf.LastIssued())
	}
	if max := m.Config().MaxTokens * inf.Limit; inf.LastIssued() > max+1 {
		t.Fatalf("growth exceeded limit cap: %v > %v", inf.LastIssued(), max)
	}
}

func TestEmergencyOwnership(t *testing.T) {
	dev, m := newHarness(Dilu{})
	a := addClient(t, dev, m, "infA", true, 0.3, 0.6)
	b := addClient(t, dev, m, "infB", true, 0.3, 0.6)
	a.Res.AddWork(1e9)
	b.Res.AddWork(1e9)
	tick(dev, m, 4)
	a.SeedKLCWork(1e-2, 1e4)
	a.ObserveIteration(sim.FromSeconds(2e-2), 1e4) // inflate A to ΔT=1
	tick(dev, m, 1)
	if m.State() != StateEmergency || m.owner != a {
		t.Fatalf("A should own EMERGENCY (state=%v)", m.State())
	}
	// B stays busy and in contention — it must not reset A's emergency.
	tick(dev, m, 1)
	if m.State() != StateEmergency {
		t.Fatalf("non-owner reset EMERGENCY: state=%v", m.State())
	}
	// A recovers: its own branch (contention) may modify the state.
	a.ObserveIteration(sim.FromSeconds(1.02e-2), 1e4)
	tick(dev, m, 1)
	if m.State() == StateEmergency {
		t.Fatal("owner failed to reset EMERGENCY after recovery")
	}
}

func TestUnregisterOwnerResetsState(t *testing.T) {
	dev, m := newHarness(Dilu{})
	a := addClient(t, dev, m, "infA", true, 0.3, 0.6)
	b := addClient(t, dev, m, "train", false, 0.4, 0.8)
	a.Res.AddWork(1e9)
	b.Res.AddWork(1e9)
	tick(dev, m, 4)
	a.SeedKLC(1e-6)
	a.ObserveIteration(sim.FromSeconds(2e-2), 1e4)
	tick(dev, m, 1)
	if m.State() != StateEmergency {
		t.Fatal("setup: no emergency")
	}
	m.Unregister(a)
	if m.State() != StateNone {
		t.Fatalf("state = %v after owner unregister, want NONE", m.State())
	}
}

func TestMPSStaticNormalization(t *testing.T) {
	dev, m := newHarness(MPS{UseLimit: true})
	a := addClient(t, dev, m, "a", true, 0.3, 0.8)
	b := addClient(t, dev, m, "b", false, 0.3, 0.8)
	a.Res.AddWork(1e9)
	b.Res.AddWork(1e9)
	tick(dev, m, 3)
	// limits sum to 1.6 → normalized to 0.5 each
	want := m.Config().MaxTokens * 0.5
	if math.Abs(a.LastIssued()-want) > 1 || math.Abs(b.LastIssued()-want) > 1 {
		t.Fatalf("MPS-l grants = %v/%v, want %v", a.LastIssued(), b.LastIssued(), want)
	}
}

func TestMPSRequestQuota(t *testing.T) {
	dev, m := newHarness(MPS{})
	a := addClient(t, dev, m, "a", true, 0.3, 0.8)
	tick(dev, m, 1)
	if want := m.Config().MaxTokens * 0.3; math.Abs(a.LastIssued()-want) > 1 {
		t.Fatalf("MPS-r grant = %v, want %v", a.LastIssued(), want)
	}
}

func TestMPSStaticUnderIdlePartner(t *testing.T) {
	// The static partition must NOT grow when the partner idles — that is
	// the fragmentation Dilu eliminates.
	dev, m := newHarness(MPS{UseLimit: true})
	a := addClient(t, dev, m, "a", true, 0.3, 0.5)
	b := addClient(t, dev, m, "b", false, 0.3, 0.5)
	_ = b // b never has demand
	a.Res.AddWork(1e9)
	tick(dev, m, 10)
	if want := m.Config().MaxTokens * 0.5; math.Abs(a.LastIssued()-want) > 1 {
		t.Fatalf("MPS grant drifted to %v", a.LastIssued())
	}
}

func TestExclusiveFullGrant(t *testing.T) {
	dev, m := newHarness(Exclusive{})
	a := addClient(t, dev, m, "a", false, 0.4, 0.65)
	tick(dev, m, 1)
	if a.LastIssued() != m.Config().MaxTokens {
		t.Fatalf("exclusive grant = %v", a.LastIssued())
	}
}

func TestTGSOpportunisticCollapsesOnInterference(t *testing.T) {
	dev, m := newHarness(TGS{})
	inf := addClient(t, dev, m, "inf", true, 0.3, 0.6)
	train := addClient(t, dev, m, "train", false, 0.4, 0.8)
	inf.Res.AddWork(1e9)
	train.Res.AddWork(1e9)
	tick(dev, m, 20)
	grown := train.LastIssued()
	inf.SeedKLC(1e-6)
	inf.ObserveIteration(sim.FromSeconds(2e-2), 1e4)
	tick(dev, m, 1)
	if train.LastIssued() >= grown*0.2 {
		t.Fatalf("TGS opportunistic share should collapse: %v -> %v", grown, train.LastIssued())
	}
	if inf.LastIssued() != m.Config().MaxTokens {
		t.Fatalf("TGS productive grant = %v, want full", inf.LastIssued())
	}
}

func TestTGSOpportunisticGrowsWhileProductiveIdle(t *testing.T) {
	dev, m := newHarness(TGS{})
	inf := addClient(t, dev, m, "inf", true, 0.3, 0.6)
	train := addClient(t, dev, m, "train", false, 0.4, 0.8)
	_ = inf // productive idle
	train.Res.AddWork(1e9)
	tick(dev, m, 1)
	first := train.LastIssued()
	tick(dev, m, 30)
	if train.LastIssued() <= first*2 {
		t.Fatalf("opportunistic should grow while productive idle: %v -> %v", first, train.LastIssued())
	}
}

func TestFaSTGSRedistributesIdlePartition(t *testing.T) {
	dev, m := newHarness(FaSTGS{})
	a := addClient(t, dev, m, "a", true, 0.25, 0.5)
	b := addClient(t, dev, m, "b", true, 0.25, 0.5)
	a.Res.AddWork(1e9)
	// b idle
	tick(dev, m, 2)
	// a busy should receive its own share plus most of b's, minus overhead
	spatialOnly := m.Config().MaxTokens * 0.5 * 0.93
	if a.LastIssued() <= spatialOnly {
		t.Fatalf("temporal redistribution missing: %v <= %v", a.LastIssued(), spatialOnly)
	}
	if b.LastIssued() >= m.Config().MaxTokens*0.5*0.93 {
		t.Fatalf("idle partition should be parked: %v", b.LastIssued())
	}
}

func TestFaSTGSOverheadReducesGrant(t *testing.T) {
	dev, m := newHarness(FaSTGS{})
	a := addClient(t, dev, m, "a", true, 0.5, 1.0)
	a.Res.AddWork(1e9)
	tick(dev, m, 2)
	want := m.Config().MaxTokens * 1.0 * (1 - fastGSOverhead)
	if math.Abs(a.LastIssued()-want) > 1 {
		t.Fatalf("grant = %v, want %v (7%% overhead)", a.LastIssued(), want)
	}
}

func TestPolicyByName(t *testing.T) {
	for _, n := range []string{"Dilu", "MPS-l", "MPS-r", "Exclusive", "TGS", "FaST-GS"} {
		p, err := PolicyByName(n)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != n {
			t.Fatalf("policy %q reports name %q", n, p.Name())
		}
	}
	if _, err := PolicyByName("bogus"); err == nil {
		t.Fatal("expected error")
	}
}

func TestObserveIterationTracksMin(t *testing.T) {
	c := &Client{}
	c.ObserveIteration(10*sim.Millisecond, 1000)
	c.ObserveIteration(5*sim.Millisecond, 1000)
	c.ObserveIteration(20*sim.Millisecond, 1000)
	if got := c.DeltaT(); math.Abs(got-3.0) > 1e-9 {
		t.Fatalf("ΔT = %v, want 3 (20ms vs 5ms min)", got)
	}
}

func TestObserveIterationIgnoresInvalid(t *testing.T) {
	c := &Client{}
	c.ObserveIteration(0, 100)
	c.ObserveIteration(10*sim.Millisecond, 0)
	if c.DeltaT() != 0 {
		t.Fatal("invalid observations must be ignored")
	}
}

// Property: under the Dilu policy, issued tokens stay within
// [0, MaxTokens·limit] for throughput clients and [0, MaxTokens·limit]
// for SLO clients, across random demand patterns.
func TestDiluIssueBoundsProperty(t *testing.T) {
	f := func(demA, demB []uint16, klcScale uint8) bool {
		dev, m := newHarness(Dilu{})
		a := &Client{ID: "a", SLOSensitive: true, Request: 0.3, Limit: 0.6}
		b := &Client{ID: "b", Request: 0.4, Limit: 0.8}
		resA, _ := dev.Attach("a", 10)
		resB, _ := dev.Attach("b", 10)
		resA.SetSatK(1e6)
		resB.SetSatK(1e6)
		a.Res, b.Res = resA, resB
		m.Register(a)
		m.Register(b)
		a.SeedKLC(1e-6)
		n := len(demA)
		if len(demB) < n {
			n = len(demB)
		}
		if n > 40 {
			n = 40
		}
		for i := 0; i < n; i++ {
			resA.AddWork(float64(demA[i]))
			resB.AddWork(float64(demB[i]))
			if i%7 == 3 {
				a.ObserveIteration(sim.FromSeconds(float64(klcScale%5+1)*1e-6*1e4), 1e4)
			}
			m.Issue(0)
			dev.ExecuteTick()
			max := m.Config().MaxTokens
			if a.LastIssued() < 0 || a.LastIssued() > max*a.Limit+1 {
				return false
			}
			if b.LastIssued() < 0 || b.LastIssued() > max*b.Limit+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
