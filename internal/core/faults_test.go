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

// Retry and hedge timings scale with each function's own SLO: two
// functions of one model under different SLO overrides, every GPU
// slowed so nothing completes, and each function's hedges fire SLO/2
// after admission and its timeouts 2·SLO after it — never at the other
// function's times.
func TestRetryHedgeTimingsFollowOwnSLO(t *testing.T) {
	sys := MustSystem(Config{Nodes: 1, GPUsPerNode: 4, Seed: 1, Retry: true, Hedge: true})
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
	// 40 admitted requests per tenant buy a budget of 10 redeliveries;
	// the 4 with a deadline hedge, leaving room for retries.
	for _, name := range []string{"fast", "slow"} {
		for i := 0; i < 40; i++ {
			req := Request{Func: name}
			if i%10 == 0 {
				req.Deadline = slos[name]
			}
			sys.Submit(0, req)
		}
	}
	hedges := func(f *Function) int64 { return f.ResilienceStats().Hedges }
	retries := func(f *Function) int64 { return f.ResilienceStats().Retries }
	for _, c := range []struct {
		at    sim.Time
		fn    string
		kind  string
		count func(*Function) int64
	}{
		{slos["fast"] / 2, "fast", "hedge", hedges},
		{2 * slos["fast"], "fast", "timeout", retries},
		{slos["slow"] / 2, "slow", "hedge", hedges},
		{2 * slos["slow"], "slow", "timeout", retries},
	} {
		f := funcs[c.fn]
		sys.Run(c.at - sim.Millisecond - sys.Eng.Now())
		if n := c.count(f); n != 0 {
			t.Fatalf("%s: %d before its %s time %v", c.fn, n, c.kind, c.at)
		}
		sys.Run(2 * sim.Millisecond)
		if c.count(f) == 0 {
			t.Fatalf("%s: no %s fired by %v", c.fn, c.kind, c.at+sim.Millisecond)
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
