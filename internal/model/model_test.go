package model

import (
	"math"
	"testing"
	"testing/quick"

	"dilu/internal/sim"
)

func TestCatalogComplete(t *testing.T) {
	want := []string{"ResNet152", "VGG19", "BERT-base", "RoBERTa-large",
		"GPT2-large", "LLaMA2-7B", "ChatGLM3-6B"}
	names := Names()
	if len(names) != len(want) {
		t.Fatalf("catalog has %d models, want %d", len(names), len(want))
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("catalog[%d] = %s, want %s", i, names[i], n)
		}
	}
}

func TestByNameUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ByName("nope")
}

func TestParamsRangeMatchesPaper(t *testing.T) {
	// Paper: "model parameters range from 0.2GB to 12.6GB".
	minP, maxP := math.Inf(1), 0.0
	for _, s := range All() {
		if s.ParamsGB < minP {
			minP = s.ParamsGB
		}
		if s.ParamsGB > maxP {
			maxP = s.ParamsGB
		}
	}
	if minP > 0.3 || maxP != 12.6 {
		t.Fatalf("params range [%v, %v], want ~[0.23, 12.6]", minP, maxP)
	}
}

func TestRoBERTaSaturationAnchor(t *testing.T) {
	// Paper anchor: RoBERTa-large at IBS=4 gains ~2% from 50%→100% SMR.
	s := ByName("RoBERTa-large")
	t50 := s.InferThroughput(0.5, 4)
	t100 := s.InferThroughput(1.0, 4)
	gain := t100/t50 - 1
	if gain < 0.005 || gain > 0.05 {
		t.Fatalf("50→100%% SMR gain = %.3f, want ~0.02", gain)
	}
}

func TestRoBERTaKLCAnchor(t *testing.T) {
	// Paper: KLC ≈ 25 ms for RoBERTa-large inference iteration.
	s := ByName("RoBERTa-large")
	klc := s.InferExecTime(0.5, 4).Millis()
	if klc < 20 || klc > 40 {
		t.Fatalf("batch-4 exec = %.1fms, want 20-40ms", klc)
	}
}

func TestGPT2TrainIdleAnchor(t *testing.T) {
	// Paper: 4-worker GPT2-large DDP idles >40% of the iteration.
	s := ByName("GPT2-large")
	idle := s.TrainIdleFraction(1.0)
	if idle < 0.38 || idle > 0.45 {
		t.Fatalf("GPT2 train idle = %.2f, want ~0.40", idle)
	}
}

func TestLLaMAPipelineIdleAnchor(t *testing.T) {
	// Paper: LLaMA2-7B pipeline fine-tuning workers idle ~20%.
	s := ByName("LLaMA2-7B")
	idle := s.TrainIdleFraction(1.0)
	if idle < 0.15 || idle > 0.27 {
		t.Fatalf("LLaMA train idle = %.2f, want ~0.20", idle)
	}
	if s.TrainStages != 4 {
		t.Fatal("LLaMA fine-tunes with 4 pipeline stages")
	}
}

func TestInferThroughputIncreasesWithSMR(t *testing.T) {
	for _, s := range All() {
		prev := 0.0
		for smr := 0.1; smr <= 1.0; smr += 0.1 {
			thr := s.InferThroughput(smr, 4)
			if thr < prev {
				t.Fatalf("%s: throughput decreased at smr=%.1f", s.Name, smr)
			}
			prev = thr
		}
	}
}

func TestInferWorkSubLinearInBatch(t *testing.T) {
	for _, s := range All() {
		w1 := s.InferWork(1)
		w4 := s.InferWork(4)
		if w4 <= w1 {
			t.Fatalf("%s: batch work must grow", s.Name)
		}
		if w4 >= 4*w1 {
			t.Fatalf("%s: batching must be sub-linear (w4=%v, 4*w1=%v)", s.Name, w4, 4*w1)
		}
	}
}

func TestSLOFeasibility(t *testing.T) {
	// Every model must have at least one <IBS,SMR> configuration meeting
	// t_exec <= SLO/2 (the profiler's feasibility rule), otherwise the
	// HGSS search cannot succeed.
	for _, s := range All() {
		budget := s.SLO / 2
		feasible := false
		for ibs := 1; ibs <= MaxIBS && !feasible; ibs *= 2 {
			for smr := 0.1; smr <= 1.0; smr += 0.1 {
				var texec sim.Duration
				if s.Generative {
					texec = s.TPOT(smr, ibs)
				} else {
					texec = s.InferExecTime(smr, ibs)
				}
				if texec <= budget {
					feasible = true
					break
				}
			}
		}
		if !feasible {
			t.Fatalf("%s: no feasible <IBS,SMR> under SLO/2=%.0fms", s.Name, budget.Millis())
		}
	}
}

func TestTrainThroughputSaturates(t *testing.T) {
	for _, s := range All() {
		thrKnee := s.TrainThroughput(s.TrainKnee)
		thrFull := s.TrainThroughput(1.0)
		if thrKnee < 0.85*thrFull {
			t.Fatalf("%s: throughput at knee %.2f should be near peak: %.2f vs %.2f",
				s.Name, s.TrainKnee, thrKnee, thrFull)
		}
	}
}

func TestColdStartScalesWithParams(t *testing.T) {
	small := ByName("ResNet152").ColdStart()
	large := ByName("LLaMA2-7B").ColdStart()
	if large <= small {
		t.Fatal("cold start must grow with model size")
	}
	if large < 8*sim.Second || large > 15*sim.Second {
		t.Fatalf("LLaMA cold start = %v, want ~10s", large)
	}
}

func TestTPOTMeetsSLOAtFullGPU(t *testing.T) {
	for _, s := range All() {
		if !s.Generative {
			continue
		}
		if got := s.TPOT(1.0, 1); got > s.SLO {
			t.Fatalf("%s: TPOT at full GPU %.1fms exceeds SLO %.1fms",
				s.Name, got.Millis(), s.SLO.Millis())
		}
	}
}

func TestThroughputEfficacyShape(t *testing.T) {
	// TE must decline in SMR beyond the knee (the marginal-effect basis
	// of Figure 4) and rise with batch size at fixed SMR.
	s := ByName("RoBERTa-large")
	knee := s.InferKnee(4)
	teAtKnee := s.ThroughputEfficacy(knee, 4)
	teFull := s.ThroughputEfficacy(1.0, 4)
	if teFull >= teAtKnee {
		t.Fatalf("TE should fall beyond knee: knee=%v full=%v", teAtKnee, teFull)
	}
	te1 := s.ThroughputEfficacy(0.4, 1)
	te8 := s.ThroughputEfficacy(0.4, 8)
	if te8 <= te1 {
		t.Fatalf("TE should rise with batch: ibs1=%v ibs8=%v", te1, te8)
	}
}

func TestGenerateWorkComposition(t *testing.T) {
	s := ByName("LLaMA2-7B")
	w := s.GenerateWork(1, 32)
	want := s.PrefillWork + 32*s.DecodeWork1
	if math.Abs(w-want) > 1e-9 {
		t.Fatalf("generate work = %v, want %v", w, want)
	}
}

// Property: exec time is monotone non-increasing in SMR for all models
// and batch sizes.
func TestExecTimeMonotoneProperty(t *testing.T) {
	models := All()
	f := func(mi, bi uint8, s1, s2 uint8) bool {
		m := models[int(mi)%len(models)]
		ibs := 1 << (bi % 6)
		a := 0.01 + float64(s1%100)/100.0
		b := 0.01 + float64(s2%100)/100.0
		if a > b {
			a, b = b, a
		}
		return m.InferExecTime(b, ibs) <= m.InferExecTime(a, ibs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: batch work is monotone in batch size.
func TestBatchWorkMonotoneProperty(t *testing.T) {
	models := All()
	f := func(mi uint8, b1, b2 uint8) bool {
		m := models[int(mi)%len(models)]
		x, y := int(b1%32)+1, int(b2%32)+1
		if x > y {
			x, y = y, x
		}
		return m.InferWork(x) <= m.InferWork(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// The staged cold-start decomposition must sum exactly (integer
// nanoseconds, not approximately) to the historical scalar formula for
// every catalog model: pre-stage driver manifests are byte-identical
// only if the default stage total is the same int64 the old
// ColdStart() returned.
func TestColdStartStagesSumExact(t *testing.T) {
	for _, m := range All() {
		st := m.ColdStartStages()
		legacy := 2*sim.Second + sim.FromSeconds(m.ParamsGB/1.5)
		if got := st.Total(); got != legacy {
			t.Errorf("%s: stages total %v != legacy scalar %v", m.Name, got, legacy)
		}
		if got := m.ColdStart(); got != st.Total() {
			t.Errorf("%s: ColdStart %v != stages total %v", m.Name, got, st.Total())
		}
		if st.ImageInit <= 0 || st.ModelLoad < 0 || st.KernelJIT <= 0 {
			t.Errorf("%s: non-positive stage in %+v", m.Name, st)
		}
	}
}

// Token-level serving charges a decode step's KV in one reservation
// rather than one per sequence, which matches per-sequence charging bit
// for bit only while every amount it adds is exact in float64. So every
// generative model's per-token KV footprint and inference memory, split
// evenly over its pipeline stages and over 2 and 4 stages, must be a
// whole multiple of 2^-10 MB, and few enough of them (< 2^40) that sums
// of many stay exact.
func TestGenerativeMemoryIsDyadic(t *testing.T) {
	const grain = 1024 // 2^10
	seen := 0
	for _, s := range All() {
		if !s.Generative {
			continue
		}
		seen++
		for _, stages := range []int{s.PipelineStages, 2, 4} {
			for _, mb := range []struct {
				name string
				v    float64
			}{{"KVMBPerToken", s.KVMBPerToken}, {"InferMemMB", s.InferMemMB}} {
				per := mb.v / float64(stages) * grain
				if per <= 0 || per != math.Trunc(per) || per >= 1<<40 {
					t.Errorf("%s: %s %v over %d stages is not a multiple of 2^-10 MB", s.Name, mb.name, mb.v, stages)
				}
			}
		}
	}
	if seen == 0 {
		t.Fatal("no generative model in the catalog")
	}
}
