package core

import (
	"testing"

	"dilu/internal/sim"
)

// A batch error aborts the step in flight but leaves the instance
// placed, so the abort must also take the step's blocks off the GPU:
// left behind, they would keep drawing RCKM grants and hold up the next
// step's drain.
func TestErrorGPUClearsAbortedWork(t *testing.T) {
	for _, tc := range []struct {
		name, model string
		opts        InferOpts
	}{
		{"inference", "BERT-base", InferOpts{Instances: 1, NoScaler: true}},
		{"llm", "LLaMA2-7B", InferOpts{Instances: 1, Stages: 1, NoScaler: true, LLM: &LLMOpts{MaxBatch: 4}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := MustSystem(Config{Nodes: 1, GPUsPerNode: 1, Seed: 1})
			f, err := sys.DeployInference("f", tc.model, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				sys.Submit(0, Request{Func: "f", PromptTokens: 64, DecodeTokens: 16})
			}
			si := f.active[0]
			pending := func() (p float64) {
				for _, st := range si.stages {
					p += st.Res.Pending()
				}
				return p
			}
			for i := 0; i < 100 && pending() == 0; i++ {
				sys.Run(sim.TickPeriod)
			}
			if si.inst.InFlight() == 0 || pending() == 0 {
				t.Fatal("no step in flight before the error")
			}
			sys.ErrorGPU(0, 0)
			if len(f.active) != 1 || f.active[0] != si {
				t.Fatal("the error did not leave the instance placed")
			}
			if p := pending(); p != 0 {
				t.Fatalf("the stages still hold %v blocks of the aborted step", p)
			}
		})
	}
}

// Hedge timings scale with each function's own SLO: two functions of
// one model under different SLO overrides, every GPU slowed so nothing
// completes, and each function's hedges fire SLO/2 after admission —
// never at the other function's time.
func TestHedgeTimingsFollowOwnSLO(t *testing.T) {
	sys := MustSystem(Config{Nodes: 1, GPUsPerNode: 4, Seed: 1, Hedge: true})
	slos := map[string]sim.Duration{"fast": 80 * sim.Millisecond, "slow": 400 * sim.Millisecond}
	funcs := map[string]*Function{}
	for _, name := range []string{"fast", "slow"} {
		f, err := sys.DeployInference(name, "BERT-base", InferOpts{
			Instances: 2, NoScaler: true, SLO: slos[name], Tenant: name,
		})
		if err != nil {
			t.Fatal(err)
		}
		funcs[name] = f
	}
	for g := 0; g < 4; g++ {
		sys.SlowGPU(0, g, 1000)
	}
	// 40 admitted requests per tenant buy a budget of 10 hedges; the 4
	// with a deadline hedge.
	for _, name := range []string{"fast", "slow"} {
		for i := 0; i < 40; i++ {
			req := Request{Func: name}
			if i%10 == 0 {
				req.Deadline = slos[name]
			}
			sys.Submit(0, req)
		}
	}
	for _, fn := range []string{"fast", "slow"} {
		f, at := funcs[fn], slos[fn]/2
		sys.Run(at - sim.Millisecond - sys.Eng.Now())
		if n := f.ResilienceStats().Hedges; n != 0 {
			t.Fatalf("%s: %d hedges before its hedge time %v", fn, n, at)
		}
		sys.Run(2 * sim.Millisecond)
		if f.ResilienceStats().Hedges == 0 {
			t.Fatalf("%s: no hedge fired by %v", fn, at+sim.Millisecond)
		}
	}
}

// A hedge race records one service: the duplicate on the fast GPU wins,
// the primary on the slowed GPU is discarded unrecorded — at its own
// completion when it is already executing, or stolen from its queue the
// moment the hedge wins — and the live-copy count returns to 0.
func TestHedgeRaceFirstCompletionWins(t *testing.T) {
	for _, tc := range []struct {
		name   string
		queued bool // the primary waits behind another request
		// liveLoser is whether the loser is still a live copy when the
		// hedge wins: an executing copy cannot be stolen, so it resolves
		// as a discard at its own completion.
		liveLoser bool
	}{
		{"executing loser", false, true},
		{"queued loser", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := MustSystem(Config{Nodes: 1, GPUsPerNode: 2, Seed: 1, Hedge: true})
			f, err := sys.DeployInference("f", "BERT-base", InferOpts{
				Instances: 2, Pin: []int{0, 1}, NoScaler: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			sys.SlowGPU(0, 0, 50)
			slo := f.Rec.SLO()
			if tc.queued {
				// One request executes on each instance, so the
				// deadline request queues on the first (ties go to it).
				sys.Submit(0, Request{Func: "f"})
				sys.Run(10 * sim.Millisecond)
				sys.Submit(sys.Eng.Now(), Request{Func: "f"})
			}
			sys.Submit(sys.Eng.Now(), Request{Func: "f", Deadline: slo})
			sys.Run(slo/2 + sim.Millisecond)
			if st := f.ResilienceStats(); st.Hedges != 1 || f.ExtraCopies() != 1 {
				t.Fatalf("after SLO/2: %d hedges, %d extra copies, want 1 and 1", st.Hedges, f.ExtraCopies())
			}
			for i := 0; i < 1000 && f.ResilienceStats().HedgeWins == 0; i++ {
				sys.Run(sim.TickPeriod)
			}
			if f.ResilienceStats().HedgeWins != 1 {
				t.Fatal("the hedge on the fast GPU never won")
			}
			if live := f.ExtraCopies() == 1; live != tc.liveLoser {
				t.Fatalf("at the hedge's win: %d extra copies, live loser want %v", f.ExtraCopies(), tc.liveLoser)
			}
			sys.Run(100 * slo)
			st := f.ResilienceStats()
			discards := int64(0)
			if tc.liveLoser {
				discards = 1
			}
			if st.HedgeWins != 1 || st.HedgeDiscards != discards {
				t.Fatalf("hedge wins %d, discards %d, want 1 and %d", st.HedgeWins, st.HedgeDiscards, discards)
			}
			if f.ExtraCopies() != 0 || f.InFlightCount() != 0 {
				t.Fatalf("%d extra copies, %d in flight after the race", f.ExtraCopies(), f.InFlightCount())
			}
			unique, ok := f.UniqueServed()
			if !ok || unique != f.Served() || f.Served() != f.admitted {
				t.Fatalf("served %d (%d unique), admitted %d", f.Served(), unique, f.admitted)
			}
		})
	}
}

// keepWarm never changes the instance count on its own; the test below
// scales in by hand, and a descheduled instance lingers in keep-alive
// for ttl.
type keepWarm struct{ ttl sim.Duration }

func (keepWarm) Name() string                               { return "keep-warm" }
func (p keepWarm) KeepAliveTTL() sim.Duration               { return p.ttl }
func (keepWarm) Decide(sim.Time, float64, int, float64) int { return 0 }

// A hedge race whose copies leave the active pool still resolves to one
// service. "keep-alive holder": the primary executes on an instance
// that scales in to keep-alive before the hedge fires, so the hedge
// finds its holder there and the loser is discarded at its own
// completion. "pending loser": the hedge executes on an instance that
// scales in, and the primary's instance is torn down, so the primary
// waits in gateway pending when the hedge wins and is stolen from
// there.
func TestHedgeRaceOutsideActivePool(t *testing.T) {
	for _, tc := range []struct {
		name     string
		pending  bool
		discards int64
	}{
		{"keep-alive holder", false, 1},
		{"pending loser", true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := MustSystem(Config{Nodes: 1, GPUsPerNode: 2, Seed: 1, Hedge: true})
			f, err := sys.DeployInference("f", "BERT-base", InferOpts{
				Instances: 2, Pin: []int{0, 1}, NoScaler: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			f.policy = keepWarm{ttl: 10 * sim.Second}
			slo := f.Rec.SLO()
			a, b := f.active[0], f.active[1]
			if tc.pending {
				// The plain request takes a (ties go to it), so the
				// deadline primary lands on b.
				sys.SlowGPU(0, 1, 50)
				sys.Submit(0, Request{Func: "f"})
				sys.Submit(0, Request{Func: "f", Deadline: slo})
			} else {
				sys.SlowGPU(0, 0, 50)
				sys.Submit(0, Request{Func: "f", Deadline: slo})
				sys.Submit(0, Request{Func: "f"})
				sys.Run(sim.TickPeriod)
				// Both loads are 1, so scale-in takes a — and with it
				// the executing primary.
				f.scaleIn(sys.Eng.Now())
				if len(f.warm) != 1 || f.warm[0].si != a || a.inst.InFlight() != 1 {
					t.Fatal("the primary's instance did not enter keep-alive executing it")
				}
			}
			sys.Run(slo/2 + sim.Millisecond - sys.Eng.Now())
			if st := f.ResilienceStats(); st.Hedges != 1 || f.ExtraCopies() != 1 {
				t.Fatalf("after SLO/2: %d hedges, %d extra copies, want 1 and 1", st.Hedges, f.ExtraCopies())
			}
			if tc.pending {
				if a.inst.InFlight() != 1 {
					t.Fatal("the hedge is not executing on a")
				}
				// a (index 0) wins the scale-in tie, carrying the hedge
				// into keep-alive; tearing b down leaves no active
				// instance, so its primary waits in gateway pending.
				f.scaleIn(sys.Eng.Now())
				f.retire(b, sys.Eng.Now())
				if len(f.active) != 0 || len(f.pending) != 1 {
					t.Fatalf("%d active, %d pending, want 0 and 1", len(f.active), len(f.pending))
				}
			}
			for i := 0; i < 1000 && f.ResilienceStats().HedgeWins == 0; i++ {
				sys.Run(sim.TickPeriod)
			}
			if f.ResilienceStats().HedgeWins != 1 {
				t.Fatal("the hedge never won")
			}
			if tc.pending && (len(f.pending) != 0 || f.ExtraCopies() != 0) {
				t.Fatalf("at the hedge's win: %d pending, %d extra copies, want the loser stolen",
					len(f.pending), f.ExtraCopies())
			}
			sys.Run(100 * slo)
			if st := f.ResilienceStats(); st.HedgeDiscards != tc.discards {
				t.Fatalf("hedge discards %d, want %d", st.HedgeDiscards, tc.discards)
			}
			if f.ExtraCopies() != 0 || f.InFlightCount() != 0 {
				t.Fatalf("%d extra copies, %d in flight after the race", f.ExtraCopies(), f.InFlightCount())
			}
			unique, ok := f.UniqueServed()
			if !ok || unique != f.Served() || f.Served() != f.admitted {
				t.Fatalf("served %d (%d unique), admitted %d", f.Served(), unique, f.admitted)
			}
		})
	}
}
