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
