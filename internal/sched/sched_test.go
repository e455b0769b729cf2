package sched

import (
	"fmt"
	"testing"
	"testing/quick"

	"dilu/internal/cluster"
	"dilu/internal/gpu"
	"dilu/internal/model"
	"dilu/internal/profiler"
)

func infProfile(name string) profiler.Profile {
	return profiler.For(model.ByName(name), profiler.RoleInference)
}

func trainProfile(name string) profiler.Profile {
	return profiler.For(model.ByName(name), profiler.RoleTraining)
}

func TestDiluPacksComplementaryInstances(t *testing.T) {
	clu := cluster.New(cluster.Config{Nodes: 2, GPUsPerNode: 4})
	s := NewDilu(clu, Options{})
	// A training worker (req ~0.4-0.6) and an inference instance
	// (req ~0.2-0.3) complement each other on one GPU.
	dTrain, err := s.Schedule(Request{Func: "bert-train", Profile: trainProfile("BERT-base"), Instances: 1})
	if err != nil {
		t.Fatal(err)
	}
	dInf, err := s.Schedule(Request{Func: "rob-inf", Profile: infProfile("RoBERTa-large"), Instances: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dTrain[0].GPUs[0] != dInf[0].GPUs[0] {
		t.Fatalf("complementary instances not collocated: %s vs %s",
			dTrain[0].GPUs[0].ID, dInf[0].GPUs[0].ID)
	}
	if clu.OccupiedCount() != 1 {
		t.Fatalf("occupied %d GPUs, want 1", clu.OccupiedCount())
	}
}

func TestDiluRespectsOmega(t *testing.T) {
	clu := cluster.New(cluster.Config{Nodes: 1, GPUsPerNode: 2})
	s := NewDilu(clu, Options{Gamma: 1.5})
	p := trainProfile("GPT2-large") // request ~0.5-0.7
	if _, err := s.Schedule(Request{Func: "a", Profile: p}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Schedule(Request{Func: "b", Profile: p}); err != nil {
		t.Fatal(err)
	}
	// Both GPUs now hold one heavy training each; a third must fail or
	// land only where Σreq stays ≤ Ω.
	for _, g := range clu.GPUs() {
		if g.SumReq > 1+1e-9 {
			t.Fatalf("gpu %s oversubscribed on requests: %v", g.ID, g.SumReq)
		}
	}
}

func TestDiluGammaBoundsLimits(t *testing.T) {
	clu := cluster.New(cluster.Config{Nodes: 1, GPUsPerNode: 1})
	s := NewDilu(clu, Options{Gamma: 1.2})
	p := infProfile("RoBERTa-large")
	placed := 0
	for i := 0; i < 10; i++ {
		if _, err := s.Schedule(Request{Func: fmt.Sprintf("f%d", i), Profile: p}); err != nil {
			break
		}
		placed++
	}
	g := clu.GPUs()[0]
	if g.SumLim > 1.2+1e-9 {
		t.Fatalf("Σ limits %v exceed γ=1.2", g.SumLim)
	}
	if placed == 0 {
		t.Fatal("nothing placed")
	}
}

func TestDiluOpensNewGPUWhenFull(t *testing.T) {
	clu := cluster.New(cluster.Config{Nodes: 1, GPUsPerNode: 4})
	s := NewDilu(clu, Options{})
	p := trainProfile("GPT2-large")
	for i := 0; i < 4; i++ {
		if _, err := s.Schedule(Request{Func: fmt.Sprintf("t%d", i), Profile: p}); err != nil {
			t.Fatalf("placement %d: %v", i, err)
		}
	}
	if clu.OccupiedCount() < 2 {
		t.Fatalf("heavy jobs should spill to new GPUs, occupied=%d", clu.OccupiedCount())
	}
}

func TestDiluNoCapacityError(t *testing.T) {
	clu := cluster.New(cluster.Config{Nodes: 1, GPUsPerNode: 1})
	s := NewDilu(clu, Options{})
	p := trainProfile("GPT2-large")
	if _, err := s.Schedule(Request{Func: "a", Profile: p, Instances: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Schedule(Request{Func: "b", Profile: p, Instances: 5}); err == nil {
		t.Fatal("expected no-capacity error")
	}
	// Failed batch must roll back entirely.
	total := 0
	for _, g := range clu.GPUs() {
		total += len(g.Placements)
	}
	if total != 1 {
		t.Fatalf("rollback failed: %d placements", total)
	}
}

func TestDiluWorkloadAffinityReplication(t *testing.T) {
	// Figure 5(b): once func-a and func-b collocate on GPU-1, a new
	// func-b instance should land with func-a's new instance rather than
	// a random third function.
	clu := cluster.New(cluster.Config{Nodes: 2, GPUsPerNode: 4})
	s := NewDilu(clu, Options{})
	pa := trainProfile("BERT-base")
	pb := infProfile("RoBERTa-large")
	pc := infProfile("BERT-base")
	da, _ := s.Schedule(Request{Func: "a", Profile: pa})
	db, _ := s.Schedule(Request{Func: "b", Profile: pb})
	if da[0].GPUs[0] != db[0].GPUs[0] {
		t.Skip("setup: a and b did not collocate")
	}
	// c joins wherever it fits.
	_, _ = s.Schedule(Request{Func: "c", Profile: pc})
	// A second a: same-function anti-affinity pushes it to a fresh fragment.
	da2, _ := s.Schedule(Request{Func: "a", Profile: pa})
	if da2[0].GPUs[0] == da[0].GPUs[0] {
		t.Skip("setup: a-2 stacked with a-1")
	}
	// Now b scales out: affinity should prefer the GPU hosting a-2 (b's
	// proven partner), not c's GPU.
	db2, err := s.Schedule(Request{Func: "b", Profile: pb})
	if err != nil {
		t.Fatal(err)
	}
	if db2[0].GPUs[0] != da2[0].GPUs[0] {
		t.Fatalf("affinity ignored: b-2 on %s, a-2 on %s", db2[0].GPUs[0].ID, da2[0].GPUs[0].ID)
	}
}

func TestDiluAffinityDisabled(t *testing.T) {
	clu := cluster.New(cluster.Config{Nodes: 2, GPUsPerNode: 4})
	s := NewDilu(clu, Options{DisableAffinity: true})
	p := infProfile("BERT-base")
	if _, err := s.Schedule(Request{Func: "x", Profile: p, Instances: 3}); err != nil {
		t.Fatal(err)
	}
}

func TestDiluMultiGPUWorstFit(t *testing.T) {
	clu := cluster.New(cluster.Config{Nodes: 1, GPUsPerNode: 4})
	s := NewDilu(clu, Options{})
	// Fill GPU 0 with a memory-heavy training worker.
	if _, err := s.Schedule(Request{Func: "t", Profile: trainProfile("GPT2-large")}); err != nil {
		t.Fatal(err)
	}
	// LLaMA over 4 fragments: worst-fit must prefer the 3 empty GPUs
	// plus the fullest only as the last resort.
	p := infProfile("LLaMA2-7B")
	d, err := s.Schedule(Request{Func: "llm", Profile: p, GPUsPerInstance: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(d[0].GPUs) != 4 {
		t.Fatalf("stages = %d", len(d[0].GPUs))
	}
	seen := map[string]bool{}
	for _, g := range d[0].GPUs {
		if seen[g.ID] {
			t.Fatal("stage GPUs must be distinct")
		}
		seen[g.ID] = true
	}
}

// TestDiluWorstFitKeepsSwapDisplacedFront pins the worst-fit selection
// on a case where a GPU that is never picked still decides a tie. The
// selection swaps the front GPU into the slot of the one it picks, so
// with candidates [g0 g1 g2 g3] (free: little, tie, tie, most) the first
// pick moves g0 behind g2 and g1 keeps the tie. Dropping g0 from the
// list, as the share cutoff alone would (its share is far below it),
// moves g1 behind g2 instead and picks g2.
func TestDiluWorstFitKeepsSwapDisplacedFront(t *testing.T) {
	clu := cluster.New(cluster.Config{Nodes: 1, GPUsPerNode: 4, Classes: []cluster.GPUClass{{Name: "uniform", Capacity: 1, MemCapMB: 40960}}})
	gs := clu.GPUs()
	for i, mem := range []float64{30000, 10000, 10000, 1000} {
		pl := &cluster.Placement{Instance: fmt.Sprint("fill-", i), Func: "fill", Req: 0.1, Lim: 0.1, MemMB: mem}
		if err := gs[i].Place(pl); err != nil {
			t.Fatal(err)
		}
	}
	s := NewDilu(clu, Options{})
	p := profiler.Profile{SMReq: 0.2, SMLim: 0.2, MemMB: 200}
	d, err := s.Schedule(Request{Func: "llm", Profile: p, GPUsPerInstance: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := d[0].GPUs; got[0] != gs[3] || got[1] != gs[1] {
		t.Fatalf("stages on %s, %s; want %s, %s", got[0].ID, got[1].ID, gs[3].ID, gs[1].ID)
	}
}

// TestDiluWorstFitKeepsCutoffTies pins the worst-fit's share cutoff:
// GPUs tying the `stages`-th largest free share must stay candidates.
// Every GPU is active; g0 and g1 (the front) and g3 have little free
// memory, g2 has the most, and g4 and g5 (two state classes, one free
// share) tie for the second largest. The first pick swaps g0 behind g2,
// and the second goes to g4, the earlier of the tie. A cutoff that
// dropped the tie would leave only the front to pick from and take g1.
func TestDiluWorstFitKeepsCutoffTies(t *testing.T) {
	clu := cluster.New(cluster.Config{Nodes: 1, GPUsPerNode: 6, Classes: []cluster.GPUClass{{Name: "uniform", Capacity: 1, MemCapMB: 1000}}})
	gs := clu.GPUs()
	for i, fill := range []struct{ req, mem float64 }{
		{0.1, 800}, {0.1, 700}, {0.1, 100}, {0.1, 900}, {0.1, 400}, {0.2, 400},
	} {
		pl := &cluster.Placement{Instance: fmt.Sprint("fill-", i), Func: "fill", Req: fill.req, Lim: fill.req, MemMB: fill.mem}
		if err := gs[i].Place(pl); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(clu.Classes()); n != 6 {
		t.Fatalf("%d state classes, want 6", n)
	}
	s := NewDilu(clu, Options{})
	p := profiler.Profile{SMReq: 0.2, SMLim: 0.2, MemMB: 200}
	d, err := s.Schedule(Request{Func: "llm", Profile: p, GPUsPerInstance: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := d[0].GPUs; got[0] != gs[2] || got[1] != gs[4] {
		t.Fatalf("stages on %s, %s; want %s, %s", got[0].ID, got[1].ID, gs[2].ID, gs[4].ID)
	}
}

func TestDiluRCDisabledUsesFreshGPUs(t *testing.T) {
	clu := cluster.New(cluster.Config{Nodes: 2, GPUsPerNode: 4})
	s := NewDilu(clu, Options{DisableComplementary: true})
	_, _ = s.Schedule(Request{Func: "t", Profile: trainProfile("BERT-base")})
	before := clu.OccupiedCount()
	p := infProfile("LLaMA2-7B")
	d, err := s.Schedule(Request{Func: "llm", Profile: p, GPUsPerInstance: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range d[0].GPUs {
		if len(g.Placements) != 1 {
			t.Fatal("-RC stages must use dedicated GPUs")
		}
	}
	if clu.OccupiedCount() != before+4 {
		t.Fatalf("-RC should open 4 fresh GPUs (before=%d now=%d)", before, clu.OccupiedCount())
	}
}

func TestExclusiveOneGPUPerInstance(t *testing.T) {
	clu := cluster.New(cluster.Config{Nodes: 1, GPUsPerNode: 4})
	s := NewExclusive(clu)
	d, err := s.Schedule(Request{Func: "f", Profile: infProfile("BERT-base"), Instances: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 3 || clu.OccupiedCount() != 3 {
		t.Fatalf("decisions=%d occupied=%d", len(d), clu.OccupiedCount())
	}
	if _, err := s.Schedule(Request{Func: "g", Profile: infProfile("BERT-base"), Instances: 2}); err == nil {
		t.Fatal("expected capacity error on 5th GPU")
	}
}

func TestStaticNoOversubscription(t *testing.T) {
	clu := cluster.New(cluster.Config{Nodes: 1, GPUsPerNode: 2})
	s := NewINFlessL(clu)
	p := infProfile("RoBERTa-large") // limit ~0.4-0.6
	for i := 0; i < 6; i++ {
		if _, err := s.Schedule(Request{Func: fmt.Sprintf("f%d", i), Profile: p}); err != nil {
			break
		}
	}
	for _, g := range clu.GPUs() {
		if g.SumReq > 1+1e-9 {
			t.Fatalf("MPS scheduler oversubscribed: %v", g.SumReq)
		}
	}
}

func TestStaticRequestVsLimitDensity(t *testing.T) {
	// INFless+-r packs more instances per GPU than INFless+-l because the
	// request quota is smaller.
	place := func(s Scheduler) int {
		n := 0
		for i := 0; i < 32; i++ {
			if _, err := s.Schedule(Request{Func: fmt.Sprintf("f%d", i), Profile: infProfile("RoBERTa-large")}); err != nil {
				break
			}
			n++
		}
		return n
	}
	nl := place(NewINFlessL(cluster.New(cluster.Config{Nodes: 1, GPUsPerNode: 2})))
	nr := place(NewINFlessR(cluster.New(cluster.Config{Nodes: 1, GPUsPerNode: 2})))
	if nr <= nl {
		t.Fatalf("request-quota density %d should exceed limit-quota %d", nr, nl)
	}
}

func TestDiluDensityBeatsStatic(t *testing.T) {
	// The headline scheduling claim: Dilu's unequal quotas with
	// oversubscription achieve higher deployment density than MPS-l on
	// the same hardware.
	packDilu := func() int {
		s := NewDilu(cluster.New(cluster.Config{Nodes: 1, GPUsPerNode: 4}), Options{})
		n := 0
		for i := 0; i < 64; i++ {
			if _, err := s.Schedule(Request{Func: fmt.Sprintf("f%d", i), Profile: infProfile("RoBERTa-large")}); err != nil {
				break
			}
			n++
		}
		return n
	}
	packStatic := func() int {
		s := NewINFlessL(cluster.New(cluster.Config{Nodes: 1, GPUsPerNode: 4}))
		n := 0
		for i := 0; i < 64; i++ {
			if _, err := s.Schedule(Request{Func: fmt.Sprintf("f%d", i), Profile: infProfile("RoBERTa-large")}); err != nil {
				break
			}
			n++
		}
		return n
	}
	d, st := packDilu(), packStatic()
	if d <= st {
		t.Fatalf("Dilu density %d should beat MPS-l %d", d, st)
	}
}

func TestReleaseReturnsCapacity(t *testing.T) {
	clu := cluster.New(cluster.Config{Nodes: 1, GPUsPerNode: 1})
	s := NewDilu(clu, Options{})
	d, err := s.Schedule(Request{Func: "f", Profile: trainProfile("GPT2-large")})
	if err != nil {
		t.Fatal(err)
	}
	d[0].Release()
	if clu.OccupiedCount() != 0 {
		t.Fatal("release did not free the GPU")
	}
	if _, err := s.Schedule(Request{Func: "g", Profile: trainProfile("GPT2-large")}); err != nil {
		t.Fatalf("capacity not reusable: %v", err)
	}
}

// Property: whatever the request mix, Dilu never violates Ω, γ, or
// memory on any GPU.
func TestDiluConstraintsProperty(t *testing.T) {
	profiles := []profiler.Profile{
		infProfile("BERT-base"), infProfile("RoBERTa-large"), infProfile("GPT2-large"),
		trainProfile("BERT-base"), trainProfile("GPT2-large"), trainProfile("ResNet152"),
	}
	f := func(picks []uint8) bool {
		clu := cluster.New(cluster.Config{Nodes: 2, GPUsPerNode: 4})
		s := NewDilu(clu, Options{})
		for i, pk := range picks {
			if i > 24 {
				break
			}
			p := profiles[int(pk)%len(profiles)]
			_, _ = s.Schedule(Request{Func: fmt.Sprintf("f%d", pk%5), Profile: p})
		}
		for _, g := range clu.GPUs() {
			if g.SumReq > 1.0+1e-6 || g.SumLim > 1.5+1e-6 || g.MemUsedMB > g.MemCapMB {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// fillEqual places one identical placement of function fns[i] on GPU i,
// so every GPU lands in one state class.
func fillEqual(t *testing.T, clu *cluster.Cluster, fns ...string) {
	t.Helper()
	for i, fn := range fns {
		pl := &cluster.Placement{Instance: fmt.Sprint("fill-", i), Func: fn, Req: 0.2, Lim: 0.2, MemMB: 1000}
		if err := clu.GPUs()[i].Place(pl); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDiluClassCandidateSkipsSameFunction covers the class walk when the
// lowest-position member of the winning class already hosts the
// function: the walk takes the next member instead, and a GPU hosting
// the function is still chosen (from the posting list, penalty paid)
// when it is the only one with room.
func TestDiluClassCandidateSkipsSameFunction(t *testing.T) {
	clu := cluster.New(cluster.Config{Nodes: 1, GPUsPerNode: 4})
	fillEqual(t, clu, "f", "f", "g", "g")
	s := NewDilu(clu, Options{DisableAffinity: true})
	p := profiler.Profile{SMReq: 0.1, SMLim: 0.1, MemMB: 100}
	d, err := s.Schedule(Request{Func: "f", Profile: p})
	if err != nil {
		t.Fatal(err)
	}
	if got := d[0].GPUs[0]; got != clu.GPUs()[2] {
		t.Fatalf("placed on %s, want the first GPU not hosting f", got.ID)
	}
	// Only GPU 0 (hosting f) keeps room for a 0.7 request.
	for _, g := range clu.GPUs()[1:] {
		if err := g.Place(&cluster.Placement{Instance: "top-" + g.ID, Func: "h", Req: 0.3, Lim: 0.3, MemMB: 100}); err != nil {
			t.Fatal(err)
		}
	}
	d, err = s.Schedule(Request{Func: "f", Profile: profiler.Profile{SMReq: 0.7, SMLim: 0.7, MemMB: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if got := d[0].GPUs[0]; got != clu.GPUs()[0] {
		t.Fatalf("placed on %s, want %s, the only GPU with room", got.ID, clu.GPUs()[0].ID)
	}
}

// TestDiluCacheAffinityPicksWarmClassMember covers kernel-cache affinity
// inside a state class: with every GPU in one class, the placement goes
// to the first GPU on a warm node rather than the class's lowest
// position, and without affinity to the lowest position.
func TestDiluCacheAffinityPicksWarmClassMember(t *testing.T) {
	for _, aff := range []bool{false, true} {
		clu := cluster.New(cluster.Config{Nodes: 3, GPUsPerNode: 2})
		for _, n := range clu.Nodes {
			n.Kernels = gpu.NewKernelCache(0)
		}
		clu.Nodes[1].Kernels.Note("f")
		clu.Nodes[2].Kernels.Note("f")
		fillEqual(t, clu, "a", "f", "b", "c", "d", "e")
		s := NewDilu(clu, Options{DisableAffinity: true, KernelCacheAffinity: aff})
		d, err := s.Schedule(Request{Func: "f", Profile: profiler.Profile{SMReq: 0.1, SMLim: 0.1, MemMB: 100}})
		if err != nil {
			t.Fatal(err)
		}
		want := clu.GPUs()[0] // GPU 1 hosts f
		if aff {
			want = clu.GPUs()[2]
		}
		if got := d[0].GPUs[0]; got != want {
			t.Fatalf("affinity %v: placed on %s, want %s", aff, got.ID, want.ID)
		}
	}
}
