package instance

import (
	"math"
	"testing"

	"dilu/internal/gpu"
	"dilu/internal/model"
)

// The per-instance memo returns Spec.InferSatK bit for bit for every
// catalog model at every batch size an instance forms, on first use and
// from the table, and past the table through its fallback.
func TestSatKMemoMatchesSpec(t *testing.T) {
	for _, spec := range model.All() {
		var m satKMemo
		for pass := 0; pass < 2; pass++ {
			for ibs := 0; ibs <= 2*model.MaxIBS+1; ibs++ {
				got, want := m.get(spec, ibs), spec.InferSatK(ibs)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s ibs %d pass %d: memo %v, InferSatK %v", spec.Name, ibs, pass, got, want)
				}
			}
		}
	}
}

// applySaturation sets every stage's K from the memo, allocating nothing,
// for both instance runtimes and across the batch sizes they form.
func TestApplySaturationAllocatesNothing(t *testing.T) {
	spec := model.ByName("BERT-base")
	dev := gpu.NewDevice("g")
	var stages []Stage
	for _, id := range []string{"s0", "s1"} {
		res, err := dev.Attach(id, 1)
		if err != nil {
			t.Fatal(err)
		}
		stages = append(stages, Stage{Res: res})
	}
	inf := NewInference("i", "f", spec, 8, stages, nil)
	llm := &LLM{server: server{Spec: spec, Stages: stages}}
	ibs := 0
	allocs := testing.AllocsPerRun(200, func() {
		ibs = ibs%(2*model.MaxIBS+2) + 1
		inf.applySaturation(ibs)
		llm.applySaturation(ibs)
	})
	if allocs != 0 {
		t.Fatalf("applySaturation allocates %v times per call pair", allocs)
	}
	inf.applySaturation(5)
	if k := spec.InferSatK(5); stages[0].Res.SatK() != k || stages[1].Res.SatK() != k {
		t.Fatalf("stage K %v/%v, want %v", stages[0].Res.SatK(), stages[1].Res.SatK(), k)
	}
}
