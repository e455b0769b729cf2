package core

import (
	"testing"

	"dilu/internal/scaler"
	"dilu/internal/sim"
	"dilu/internal/workload"
)

func TestLLMInferenceSchedulerSharding(t *testing.T) {
	// A generative model deployed without pinning shards over its
	// pipeline depth via the scheduler's memory worst-fit.
	sys := MustSystem(Config{Nodes: 2, GPUsPerNode: 4})
	f, err := sys.DeployInference("llama", "LLaMA2-7B", InferOpts{
		Arrivals: workload.Poisson{RPS: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Stages != 4 {
		t.Fatalf("stages = %d, want the model's pipeline depth 4", f.Stages)
	}
	if got := sys.Clu.OccupiedCount(); got != 4 {
		t.Fatalf("occupied %d GPUs, want 4 fragments", got)
	}
	sys.Run(60 * sim.Second)
	if f.Served() < 60 {
		t.Fatalf("LLM served %d", f.Served())
	}
	// TPOT SLO should mostly hold at this light load.
	if svr := f.Rec.ViolationRate(); svr > 0.15 {
		t.Fatalf("LLM TPOT SVR %.2f too high", svr)
	}
}

func TestLLMCollocatesWithTrainingOnFragments(t *testing.T) {
	// The paper's Figure 7 LLaMA case: the LLM's fragments share GPUs
	// with training workers instead of new GPUs being opened.
	sys := MustSystem(Config{Nodes: 1, GPUsPerNode: 4})
	if _, err := sys.DeployTraining("bert-t", "BERT-base", TrainOpts{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if sys.Clu.OccupiedCount() != 4 {
		t.Fatal("setup: 4 training workers should hold 4 GPUs")
	}
	if _, err := sys.DeployInference("llama", "LLaMA2-7B", InferOpts{
		Arrivals: workload.Poisson{RPS: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if sys.Clu.OccupiedCount() != 4 {
		t.Fatalf("LLM should reuse the 4 fragments, occupied=%d", sys.Clu.OccupiedCount())
	}
	sys.Run(20 * sim.Second)
}

func TestDeploymentFailsWhenClusterFull(t *testing.T) {
	sys := MustSystem(Config{Nodes: 1, GPUsPerNode: 1})
	// Two 20 GB jobs fill the GPU exactly (memory) and its request quota.
	if _, err := sys.DeployTraining("gpt2", "GPT2-large", TrainOpts{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DeployTraining("gpt2b", "GPT2-large", TrainOpts{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	// A third cannot fit on any axis; placement failure surfaces via
	// Started (submission is asynchronous by design).
	third, err := sys.DeployTraining("gpt2c", "GPT2-large", TrainOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if third.Started() {
		t.Fatal("third 20GB job should not fit")
	}
	// Nor can a 2-worker job on a 1-GPU cluster (workers never share).
	sys2 := MustSystem(Config{Nodes: 1, GPUsPerNode: 1})
	tj, err := sys2.DeployTraining("ddp", "BERT-base", TrainOpts{Workers: 2})
	if err != nil {
		t.Fatal(err) // deferred placement reports via Started
	}
	if tj.Started() {
		t.Fatal("2 DDP workers cannot share the single GPU")
	}
}

func TestINFlessSystemVariantServes(t *testing.T) {
	sys := MustSystem(Config{
		Nodes: 1, GPUsPerNode: 2, Policy: "MPS-l", Scheduler: "INFless+-l",
		NewScaler: func() scaler.Policy { return scaler.NewPredictive() },
	})
	f, err := sys.DeployInference("bert", "BERT-base", InferOpts{
		Arrivals: workload.Poisson{RPS: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(30 * sim.Second)
	if f.Served() < 1000 {
		t.Fatalf("INFless+ variant served %d", f.Served())
	}
}

func TestFaSTGSSystemVariantServes(t *testing.T) {
	sys := MustSystem(Config{
		Nodes: 1, GPUsPerNode: 2, Policy: "FaST-GS", Scheduler: "FaST-GS+",
		NewScaler: func() scaler.Policy { return scaler.NewEager() },
	})
	f, err := sys.DeployInference("bert", "BERT-base", InferOpts{
		Arrivals: workload.Poisson{RPS: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(30 * sim.Second)
	if f.Served() < 1000 {
		t.Fatalf("FaST-GS+ variant served %d", f.Served())
	}
}

func TestPinValidation(t *testing.T) {
	sys := MustSystem(Config{Nodes: 1, GPUsPerNode: 2})
	if _, err := sys.DeployInference("x", "BERT-base", InferOpts{Pin: []int{99}}); err == nil {
		t.Fatal("out-of-range pin accepted")
	}
	if _, err := sys.DeployInference("y", "LLaMA2-7B", InferOpts{Pin: []int{0}}); err == nil {
		t.Fatal("4-stage model pinned to 1 GPU accepted")
	}
	tj, err := sys.DeployTraining("t", "BERT-base", TrainOpts{Workers: 2, Pin: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if tj.Started() {
		t.Fatal("mismatched training pin should fail placement")
	}
}

func TestScaleOutRespectsCapacity(t *testing.T) {
	// On a one-GPU cluster already shared by training + inference, the
	// scaler's extra instances must fail gracefully without corrupting
	// the run.
	sys := MustSystem(Config{
		Nodes: 1, GPUsPerNode: 1,
		NewScaler: func() scaler.Policy { return scaler.NewDilu(scaler.DiluConfig{Window: 10, PhiOut: 5, PhiIn: 8}) },
	})
	if _, err := sys.DeployTraining("t", "GPT2-large", TrainOpts{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	f, err := sys.DeployInference("i", "RoBERTa-large", InferOpts{
		Arrivals: workload.Constant{RPS: 300}, // far beyond one instance
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(60 * sim.Second)
	if f.Served() == 0 {
		t.Fatal("system wedged under failed scale-outs")
	}
}

func TestDelayedTrainingSubmission(t *testing.T) {
	sys := MustSystem(Config{Nodes: 1, GPUsPerNode: 2})
	tj, err := sys.DeployTraining("late", "BERT-base", TrainOpts{Workers: 1, StartAt: 10 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(5 * sim.Second)
	if tj.Started() {
		t.Fatal("job started before its submission time")
	}
	sys.Run(10 * sim.Second)
	if !tj.Started() {
		t.Fatal("job did not start after submission time")
	}
	if tj.SubmitAt != 10*sim.Second {
		t.Fatalf("submit time %v", tj.SubmitAt)
	}
}

func TestFunctionSubmitManual(t *testing.T) {
	sys := MustSystem(Config{Nodes: 1, GPUsPerNode: 1})
	f, err := sys.DeployInference("manual", "BERT-base", InferOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		at := sim.Time(i+1) * 100 * sim.Millisecond
		sys.Eng.Schedule(at, func(now sim.Time) { sys.Submit(now, Request{Func: "manual"}) })
	}
	sys.Run(5 * sim.Second)
	if f.Served() != 10 {
		t.Fatalf("served %d / 10 submitted", f.Served())
	}
	if sub, adm, shed := f.GatewayCounts(); sub != 10 || adm != 10 || shed != 0 {
		t.Fatalf("gateway counts = %d/%d/%d, want 10/10/0", sub, adm, shed)
	}
}

func TestGenerativePressureHolds(t *testing.T) {
	// An LLM instance under backlog must keep serving without deadlock
	// and report pressure to its clients.
	sys := MustSystem(Config{Nodes: 1, GPUsPerNode: 4, Seed: 2})
	f, err := sys.DeployInference("llama", "LLaMA2-7B", InferOpts{
		Arrivals: workload.Bursty{BaseRPS: 2, Scale: 6, BurstDur: 20 * sim.Second, Quiet: 30 * sim.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(90 * sim.Second)
	if f.Served() < 100 {
		t.Fatalf("LLM under bursts served only %d", f.Served())
	}
}

func TestMPSLRespectsStaticGrantUnderScaleChanges(t *testing.T) {
	// Regression: releasing a collocated instance must not leave the MPS
	// normalization stale.
	sys := MustSystem(Config{Nodes: 1, GPUsPerNode: 1, Policy: "MPS-l"})
	tj, err := sys.DeployTraining("t", "BERT-base", TrainOpts{Workers: 1, TargetIters: 30})
	if err != nil {
		t.Fatal(err)
	}
	f, err := sys.DeployInference("i", "RoBERTa-large", InferOpts{
		Arrivals: workload.Poisson{RPS: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(60 * sim.Second)
	if !tj.Job.Finished() {
		t.Fatal("training never finished")
	}
	if f.Served() < 900 {
		t.Fatalf("inference starved after job release: %d", f.Served())
	}
}

// scaleInOnce scales in exactly once, at the first sample at or after
// `at`, with a fixed keep-alive TTL.
type scaleInOnce struct {
	at   sim.Time
	ttl  sim.Duration
	done bool
}

func (p *scaleInOnce) Name() string               { return "scale-in-once" }
func (p *scaleInOnce) KeepAliveTTL() sim.Duration { return p.ttl }
func (p *scaleInOnce) Decide(now sim.Time, _ float64, _ int, _ float64) int {
	if p.done || now < p.at {
		return 0
	}
	p.done = true
	return -1
}

// TestKeepAliveExpiryRequeuesInFlightBatch: a keep-alive entry whose
// TTL expires while it is still executing the batch it carried out of
// service hands that batch back to the gateway. Detaching it with the
// requests inside would strand them in flight forever.
func TestKeepAliveExpiryRequeuesInFlightBatch(t *testing.T) {
	sys := MustSystem(Config{
		Nodes: 1, GPUsPerNode: 4, Seed: 1,
		NewScaler: func() scaler.Policy {
			return &scaleInOnce{at: 2 * sim.Second, ttl: sim.Millisecond}
		},
	})
	arr := make([]sim.Time, 400)
	for i := range arr {
		arr[i] = sim.Time(i) * 5 * sim.Millisecond
	}
	f, err := sys.DeployInference("f", "GPT2-large", InferOpts{
		Instances: 2, Arrivals: workload.Times{Label: "every-5ms", T: arr},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(600 * sim.Second)
	if len(f.warm) == 0 {
		t.Fatal("scale-in never parked an instance in keep-alive")
	}
	if f.Served() != 400 || f.InFlightCount() != 0 {
		t.Fatalf("served %d of 400, %d still in flight", f.Served(), f.InFlightCount())
	}
	for _, w := range f.warm {
		if w.si.inst.Busy() {
			t.Fatalf("expired keep-alive entry still holds %d requests", w.si.inst.Load())
		}
	}
}

// scaleOutOnce answers delta at its first sample and 0 after.
type scaleOutOnce struct {
	delta int
	done  bool
}

func (p *scaleOutOnce) Name() string               { return "scale-out-once" }
func (p *scaleOutOnce) KeepAliveTTL() sim.Duration { return 0 }
func (p *scaleOutOnce) Decide(sim.Time, float64, int, float64) int {
	if p.done {
		return 0
	}
	p.done = true
	return p.delta
}

// TestSampleCarriesOutWholeDelta: the control step launches one cold
// instance per unit of a positive delta, and on a cluster without room
// it stops at the first failed launch with every ledger intact.
func TestSampleCarriesOutWholeDelta(t *testing.T) {
	deploy := func(gpus, delta int) (*System, *Function) {
		sys := MustSystem(Config{
			Nodes: 1, GPUsPerNode: gpus, Seed: 1,
			NewScaler: func() scaler.Policy { return &scaleOutOnce{delta: delta} },
		})
		f, err := sys.DeployInference("bert", "BERT-base", InferOpts{
			Arrivals: workload.Constant{RPS: 50},
		})
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(30 * sim.Second)
		return sys, f
	}

	_, f := deploy(4, 2)
	if f.ColdStarts.Value != 2 || f.InstancesActive() != 3 {
		t.Fatalf("+2 on a roomy cluster: %d cold starts, %d instances; want 2 and 3",
			f.ColdStarts.Value, f.InstancesActive())
	}

	const ask = 1000
	sys, f := deploy(1, ask)
	if n := f.ColdStarts.Value; n == 0 || n >= ask {
		t.Fatalf("+%d on one GPU launched %d cold instances", ask, n)
	}
	if _, err := f.launch(true); err == nil {
		t.Fatal("the loop stopped while the GPU still had room")
	}
	submitted, admitted, shed := f.GatewayCounts()
	if submitted != admitted+shed || f.InFlightCount() != f.RecountInFlight() {
		t.Fatalf("ledgers: submitted %d admitted %d shed %d, in flight %d recounted %d",
			submitted, admitted, shed, f.InFlightCount(), f.RecountInFlight())
	}
	placements := 0
	for _, g := range sys.Clu.GPUs() {
		placements += len(g.Placements)
	}
	if placements != f.InstancesActive() {
		t.Fatalf("%d placements for %d instances", placements, f.InstancesActive())
	}
}
