package rckm

import (
	"testing"

	"dilu/internal/gpu"
	"dilu/internal/sim"
)

func TestPressureHoldsEmergency(t *testing.T) {
	dev, m := newHarness(Dilu{})
	inf := addClient(t, dev, m, "inf", true, 0.3, 0.6)
	train := addClient(t, dev, m, "train", false, 0.4, 0.8)
	inf.Res.AddWork(1e9)
	train.Res.AddWork(1e9)
	tick(dev, m, 4)
	inf.SetPressured(true)
	tick(dev, m, 1)
	if m.State() != StateEmergency {
		t.Fatalf("pressure did not trigger EMERGENCY: %v", m.State())
	}
	// Pressure holds across many cycles even with no KLC inflation.
	tick(dev, m, 50)
	if m.State() != StateEmergency {
		t.Fatalf("pressure did not hold EMERGENCY: %v", m.State())
	}
	if want := m.Config().MaxTokens * inf.Limit; inf.LastIssued() != want {
		t.Fatalf("pressured inference issued %v, want limit %v", inf.LastIssued(), want)
	}
	// Clearing the pressure releases the state.
	inf.SetPressured(false)
	tick(dev, m, 2)
	if m.State() == StateEmergency {
		t.Fatal("EMERGENCY survived pressure clear")
	}
}

func TestNoPressureHoldAblation(t *testing.T) {
	dev := gpu.NewDevice("g0")
	m := NewManager(dev, Dilu{}, Config{NoPressureHold: true})
	res, _ := dev.Attach("inf", 10)
	res.SetSatK(1e6)
	c := &Client{ID: "inf", Res: res, SLOSensitive: true, Request: 0.3, Limit: 0.6}
	m.Register(c)
	tr, _ := dev.Attach("t", 10)
	tr.SetSatK(1e6)
	ct := &Client{ID: "t", Res: tr, Request: 0.4, Limit: 0.8}
	m.Register(ct)
	res.AddWork(1e9)
	tr.AddWork(1e9)
	tick(dev, m, 4)
	c.SetPressured(true)
	tick(dev, m, 2)
	if m.State() == StateEmergency {
		t.Fatal("ablated controller must ignore pressure")
	}
}

func TestNoAntiWindupAblationFreezesRLast(t *testing.T) {
	dev := gpu.NewDevice("g0")
	m := NewManager(dev, Dilu{}, Config{NoAntiWindup: true, NoHysteresis: true})
	res, _ := dev.Attach("inf", 10)
	res.SetSatK(1e6)
	inf := &Client{ID: "inf", Res: res, SLOSensitive: true, Request: 0.3, Limit: 0.6}
	m.Register(inf)
	tr, _ := dev.Attach("t", 10)
	tr.SetSatK(1e6)
	train := &Client{ID: "t", Res: tr, Request: 0.4, Limit: 0.8}
	m.Register(train)
	res.AddWork(1e9)
	tr.AddWork(1e9)
	tick(dev, m, 4)
	// Sustained severe inflation decays training without a floor...
	inf.SeedKLCWork(1e-2, 1e4)
	for i := 0; i < 40; i++ {
		inf.ObserveIteration(sim.FromSeconds(5e-2), 1e4) // ΔT = 4
		tick(dev, m, 1)
	}
	decayed := train.LastIssued()
	if decayed > 0.05*m.Config().MaxTokens*train.Request {
		t.Fatalf("literal formula should decay training deeply, got %v", decayed)
	}
	// ...and CONTENTION freezes the decayed value (the windup the
	// stabilized controller repairs).
	inf.ObserveIteration(sim.FromSeconds(1.01e-2), 1e4)
	tick(dev, m, 3)
	if m.State() != StateContention {
		t.Fatalf("state = %v", m.State())
	}
	if train.LastIssued() > decayed*1.01 {
		t.Fatalf("literal CONTENTION should freeze R_last: %v vs %v", train.LastIssued(), decayed)
	}
}

func TestAntiWindupFloorAndRestore(t *testing.T) {
	dev, m := newHarness(Dilu{})
	inf := addClient(t, dev, m, "inf", true, 0.3, 0.6)
	train := addClient(t, dev, m, "train", false, 0.4, 0.8)
	inf.Res.AddWork(1e9)
	train.Res.AddWork(1e9)
	tick(dev, m, 4)
	inf.SeedKLCWork(1e-2, 1e4)
	for i := 0; i < 40; i++ {
		inf.ObserveIteration(sim.FromSeconds(5e-2), 1e4)
		tick(dev, m, 1)
	}
	floor := 0.5 * m.Config().MaxTokens * train.Request
	if train.LastIssued() < floor-1 {
		t.Fatalf("decay broke the floor: %v < %v", train.LastIssued(), floor)
	}
	// Recovery of the inference restores the request quota.
	inf.ObserveIteration(sim.FromSeconds(1.01e-2), 1e4)
	tick(dev, m, 3)
	want := m.Config().MaxTokens * train.Request
	if train.LastIssued() < want-1 {
		t.Fatalf("CONTENTION should restore request: %v < %v", train.LastIssued(), want)
	}
}
