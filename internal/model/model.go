// Package model is the DL model catalog and performance model. Every
// figure in the paper evaluates some subset of seven models (ResNet152,
// VGG19, BERT-base, RoBERTa-large, GPT2-large, LLaMA2-7B, ChatGLM3-6B);
// this package describes each one by the quantities the simulator needs:
//
//   - kernel-block work per inference batch / training iteration,
//   - SM-saturation knee (how early extra SMs stop helping),
//   - memory footprints and parameter sizes,
//   - SLOs and batching sub-linearity,
//   - LLM prefill/decode structure and training sync/pipeline overheads.
//
// Work is expressed in the block units of internal/gpu: a device executes
// gpu.DefaultCapacityPerTick blocks per 5 ms tick at full SM, i.e.
// BlocksPerSecond per second, so "W blocks" means "W/BlocksPerSecond
// seconds on a whole idle A100". Calibration anchors from the paper are
// noted inline (e.g. RoBERTa-large: +2% throughput from 50%→100% SMR at
// IBS=4; kernel launch cycle ≈ 25 ms; params 0.2–12.6 GB).
package model

import (
	"fmt"
	"math"

	"dilu/internal/gpu"
	"dilu/internal/sim"
)

// BlocksPerSecond is the full-SM execution rate of a device in block
// units per second of virtual time.
const BlocksPerSecond = gpu.DefaultCapacityPerTick * float64(sim.Second/sim.TickPeriod)

// Family classifies a model's domain.
type Family int

// Model families used by the paper's workload mix.
const (
	Vision Family = iota
	NLP
	LLM
)

func (f Family) String() string {
	switch f {
	case Vision:
		return "vision"
	case NLP:
		return "nlp"
	case LLM:
		return "llm"
	}
	return "unknown"
}

// Spec describes one model's resource behaviour for both inference and
// training roles.
type Spec struct {
	Name     string
	Family   Family
	ParamsGB float64

	// Inference.
	InferMemMB   float64      // device memory of one inference instance
	InferWork1   float64      // blocks per batch-1 execution
	InferPerItem float64      // marginal work of each extra batch item, as a fraction of InferWork1
	InferKnee1   float64      // SM share where batch-1 inference reaches 95% of peak
	KneeBatchExp float64      // knee growth exponent with batch size
	SLO          sim.Duration // end-to-end latency SLO for one request

	// Generative (LLM) inference.
	Generative     bool
	PrefillWork    float64 // blocks for prefilling a batch-1 prompt
	DecodeWork1    float64 // blocks per decode step at batch 1
	DecodePerItem  float64 // marginal decode work per extra sequence
	AvgOutTokens   int     // output length used for closed-form latency
	PipelineStages int     // inference pipeline depth when sharded over fragments
	// KVMBPerToken is the per-token KV-cache footprint charged against
	// device memory by token-level serving. Catalog values are dyadic
	// rationals (exact in float64) so repeated reserve/release cycles
	// accumulate zero drift against the cluster's quota bookkeeping.
	KVMBPerToken float64

	// Training.
	TrainMemMB   float64      // per-worker device memory
	TrainWork    float64      // blocks per iteration (forward+backward)
	TrainSync    sim.Duration // gradient-sync / communication idle per iteration
	TrainSamples int          // samples per iteration per worker
	TrainKnee    float64      // SM share where training reaches 95% of peak
	TrainStages  int          // >1 means pipeline-parallel fine-tuning (DeepSpeed)
}

// MaxIBS is the largest inference batch size the profiler explores.
const MaxIBS = 32

// InferWork returns the blocks of one inference batch execution.
func (s *Spec) InferWork(ibs int) float64 {
	if ibs < 1 {
		ibs = 1
	}
	return s.InferWork1 * (1 + s.InferPerItem*float64(ibs-1))
}

// InferKnee returns the saturation knee for the given batch size.
func (s *Spec) InferKnee(ibs int) float64 {
	if ibs < 1 {
		ibs = 1
	}
	k := s.InferKnee1 * math.Pow(float64(ibs), s.KneeBatchExp)
	if k > 0.93 {
		k = 0.93
	}
	return k
}

// InferSatK returns the eff-curve constant for inference at a batch size.
func (s *Spec) InferSatK(ibs int) float64 {
	return gpu.KneeForEff(s.InferKnee(ibs), 0.95)
}

// TrainSatK returns the eff-curve constant for training iterations.
func (s *Spec) TrainSatK() float64 {
	return gpu.KneeForEff(s.TrainKnee, 0.95)
}

// InferExecTime predicts one batch execution time at SM share smr. For
// generative models this is prefill plus AvgOutTokens decode steps.
func (s *Spec) InferExecTime(smr float64, ibs int) sim.Duration {
	eff := gpu.Eff(s.InferSatK(ibs), smr)
	if eff <= 0 {
		return sim.Hour
	}
	work := s.InferWork(ibs)
	if s.Generative {
		work = s.GenerateWork(ibs, s.AvgOutTokens)
	}
	return sim.FromSeconds(work / (BlocksPerSecond * eff))
}

// DecodeStepWork returns the blocks of one decode step at batch size ibs.
func (s *Spec) DecodeStepWork(ibs int) float64 {
	if ibs < 1 {
		ibs = 1
	}
	return s.DecodeWork1 * (1 + s.DecodePerItem*float64(ibs-1))
}

// GenerateWork returns the total blocks to serve a generative batch:
// prefill plus outTokens decode steps.
func (s *Spec) GenerateWork(ibs, outTokens int) float64 {
	if ibs < 1 {
		ibs = 1
	}
	prefill := s.PrefillWork * (1 + s.InferPerItem*float64(ibs-1))
	return prefill + float64(outTokens)*s.DecodeStepWork(ibs)
}

// TPOT predicts the time-per-output-token at SM share smr and batch ibs —
// the paper's LLM latency metric.
func (s *Spec) TPOT(smr float64, ibs int) sim.Duration {
	eff := gpu.Eff(s.InferSatK(ibs), smr)
	if eff <= 0 {
		return sim.Hour
	}
	return sim.FromSeconds(s.DecodeStepWork(ibs) / (BlocksPerSecond * eff))
}

// InferThroughput predicts requests/second at a given share and batch.
func (s *Spec) InferThroughput(smr float64, ibs int) float64 {
	t := s.InferExecTime(smr, ibs).Seconds()
	if t <= 0 {
		return 0
	}
	return float64(ibs) / t
}

// ThroughputEfficacy is the paper's TE metric: throughput per SM unit
// (SMR expressed in percent, matching TE = IBS/(t_exec·SMR)).
func (s *Spec) ThroughputEfficacy(smr float64, ibs int) float64 {
	if smr <= 0 {
		return 0
	}
	return s.InferThroughput(smr, ibs) / (smr * 100)
}

// TrainIterTime predicts one training iteration (compute + sync idle) at
// SM share smr.
func (s *Spec) TrainIterTime(smr float64) sim.Duration {
	eff := gpu.Eff(s.TrainSatK(), smr)
	if eff <= 0 {
		return sim.Hour
	}
	compute := sim.FromSeconds(s.TrainWork / (BlocksPerSecond * eff))
	return compute + s.TrainSync
}

// TrainThroughput predicts samples/second per worker at SM share smr.
func (s *Spec) TrainThroughput(smr float64) float64 {
	t := s.TrainIterTime(smr).Seconds()
	if t <= 0 {
		return 0
	}
	return float64(s.TrainSamples) / t
}

// TrainIdleFraction is the share of an iteration spent in communication
// (Observation-2 of the paper: >40% for 4-worker GPT2-large DDP).
func (s *Spec) TrainIdleFraction(smr float64) float64 {
	t := s.TrainIterTime(smr)
	if t <= 0 {
		return 0
	}
	return float64(s.TrainSync) / float64(t)
}

// ColdStartStages decomposes an instance cold start into its three
// serially-executed phases. The serving plane charges each phase
// against the wall clock in order; attribution (which phase was on a
// request's critical path) and shortening (a node-local kernel cache
// skipping JIT) both operate on this decomposition.
type ColdStartStages struct {
	ImageInit sim.Duration // container image pull + runtime/driver init
	ModelLoad sim.Duration // parameter load over PCIe-class bandwidth
	KernelJIT sim.Duration // GPU-kernel JIT / graph capture on first touch
}

// Total is the wall-clock cold-start duration: the stages run serially.
func (st ColdStartStages) Total() sim.Duration {
	return st.ImageInit + st.ModelLoad + st.KernelJIT
}

// Cold-start decomposition constants. ImageInit+KernelJIT must sum to
// ColdStart()'s 2 s container-init term exactly (integer nanoseconds),
// so ColdStartStages().Total() == ColdStart() for every spec: a
// kernel-cache miss pays exactly ColdStart(), the bound the migration
// handover and the prewarm lead time are computed from.
const (
	coldImageInit = 3 * sim.Second / 2 // 1.5 s: image pull + runtime init
	coldKernelJIT = sim.Second / 2     // 0.5 s: kernel JIT / graph capture
	coldLoadGBps  = 1.5                // PCIe-class parameter-load bandwidth
)

// ColdStartStages returns the default cold-start decomposition:
// fixed-cost image/runtime init, size-proportional parameter load, and
// fixed-cost kernel JIT. The parts sum exactly to ColdStart().
func (s *Spec) ColdStartStages() ColdStartStages {
	return ColdStartStages{
		ImageInit: coldImageInit,
		ModelLoad: sim.FromSeconds(s.ParamsGB / coldLoadGBps),
		KernelJIT: coldKernelJIT,
	}
}

// ColdStart returns the instance cold-start duration: container and
// runtime init plus loading parameters over PCIe-class bandwidth plus
// kernel JIT — the sum of ColdStartStages.
func (s *Spec) ColdStart() sim.Duration {
	return s.ColdStartStages().Total()
}

func (s *Spec) String() string { return fmt.Sprintf("%s(%s)", s.Name, s.Family) }

// catalog holds every model of the paper's evaluation. Work constants are
// calibrated so full-GPU batch-1 latencies and training iteration times
// are A100-plausible and the paper's qualitative anchors hold.
var catalog = []*Spec{
	{
		Name: "ResNet152", Family: Vision, ParamsGB: 0.23,
		InferMemMB: 1200, InferWork1: 14000, InferPerItem: 0.35,
		InferKnee1: 0.30, KneeBatchExp: 0.45, SLO: 75 * sim.Millisecond,
		TrainMemMB: 6 * 1024, TrainWork: 45000, TrainSync: 10 * sim.Millisecond,
		TrainSamples: 64, TrainKnee: 0.58,
	},
	{
		Name: "VGG19", Family: Vision, ParamsGB: 0.55,
		InferMemMB: 1600, InferWork1: 10000, InferPerItem: 0.60,
		InferKnee1: 0.36, KneeBatchExp: 0.45, SLO: 60 * sim.Millisecond,
		TrainMemMB: 8 * 1024, TrainWork: 40000, TrainSync: 18 * sim.Millisecond,
		TrainSamples: 32, TrainKnee: 0.62,
	},
	{
		Name: "BERT-base", Family: NLP, ParamsGB: 0.42,
		InferMemMB: 1400, InferWork1: 6000, InferPerItem: 0.40,
		InferKnee1: 0.18, KneeBatchExp: 0.40, SLO: 40 * sim.Millisecond,
		TrainMemMB: 6 * 1024, TrainWork: 40000, TrainSync: 12 * sim.Millisecond,
		TrainSamples: 32, TrainKnee: 0.48,
	},
	{
		// Anchor: at IBS=4 the knee sits near 40% SM, so doubling SMR from
		// 50% to 100% buys only ~2% throughput (paper §3.2); batch-4 exec
		// ≈ 31 ms at its knee, matching the ~25 ms KLC observation.
		Name: "RoBERTa-large", Family: NLP, ParamsGB: 1.42,
		InferMemMB: 3200, InferWork1: 15000, InferPerItem: 0.35,
		InferKnee1: 0.25, KneeBatchExp: 0.40, SLO: 100 * sim.Millisecond,
		TrainMemMB: 12 * 1024, TrainWork: 90000, TrainSync: 25 * sim.Millisecond,
		TrainSamples: 16, TrainKnee: 0.62,
	},
	{
		Name: "GPT2-large", Family: NLP, ParamsGB: 3.1,
		InferMemMB: 6400, InferWork1: 28000, InferPerItem: 0.40,
		InferKnee1: 0.44, KneeBatchExp: 0.35, SLO: 150 * sim.Millisecond,
		// Anchor: 4-worker DDP training idles >40% of each iteration in
		// gradient sync (paper Fig. 2(a)): 80ms sync / (120ms+80ms) = 40%.
		TrainMemMB: 20 * 1024, TrainWork: 120000, TrainSync: 80 * sim.Millisecond,
		TrainSamples: 8, TrainKnee: 0.72,
	},
	{
		Name: "LLaMA2-7B", Family: LLM, ParamsGB: 12.6, Generative: true,
		InferMemMB: 16 * 1024, InferWork1: 90000, InferPerItem: 0.50,
		InferKnee1: 0.62, KneeBatchExp: 0.30, SLO: 80 * sim.Millisecond,
		PrefillWork: 90000, DecodeWork1: 15000, DecodePerItem: 0.15,
		AvgOutTokens: 32, PipelineStages: 4, KVMBPerToken: 0.5,
		// Fine-tuning uses DeepSpeed pipeline parallelism; each worker
		// idles ~20% in pipeline bubbles (paper Fig. 2(b)).
		TrainMemMB: 9 * 1024, TrainWork: 200000, TrainSync: 55 * sim.Millisecond,
		TrainSamples: 4, TrainKnee: 0.85, TrainStages: 4,
	},
	{
		Name: "ChatGLM3-6B", Family: LLM, ParamsGB: 11.7, Generative: true,
		InferMemMB: 14 * 1024, InferWork1: 80000, InferPerItem: 0.50,
		InferKnee1: 0.60, KneeBatchExp: 0.30, SLO: 80 * sim.Millisecond,
		PrefillWork: 80000, DecodeWork1: 13500, DecodePerItem: 0.15,
		AvgOutTokens: 32, PipelineStages: 4, KVMBPerToken: 0.4375,
		TrainMemMB: 8 * 1024, TrainWork: 180000, TrainSync: 50 * sim.Millisecond,
		TrainSamples: 4, TrainKnee: 0.85, TrainStages: 4,
	},
}

// All returns every catalog model in declaration order.
func All() []*Spec { return catalog }

// ByName returns a model by name; it panics on unknown names, which is a
// programming error in experiment drivers.
func ByName(name string) *Spec {
	for _, s := range catalog {
		if s.Name == name {
			return s
		}
	}
	panic(fmt.Sprintf("model: unknown model %q", name))
}

// LLMRefPromptTokens is the prompt length the catalog's PrefillWork
// figure was calibrated at. Token-level serving scales prefill cost
// linearly from this reference.
const LLMRefPromptTokens = 128

// LLMProfile is the token-level cost model for autoregressive serving:
// per-token prefill work, batch-size-dependent decode step work, and
// per-token KV-cache footprint. Derived from a generative Spec so the
// closed-form (GenerateWork) and token-level views share calibration.
type LLMProfile struct {
	Name             string
	PrefillTokenWork float64 // blocks per prompt token prefilled
	DecodeWork1      float64 // blocks per decode step at one sequence
	DecodePerSeq     float64 // marginal decode work per extra sequence
	KVMBPerToken     float64 // KV-cache MB charged per resident token
	SLO              sim.Duration
}

// LLM returns the token-level profile of a generative spec; it panics on
// non-generative models, which is a driver programming error.
func (s *Spec) LLM() LLMProfile {
	if !s.Generative {
		panic(fmt.Sprintf("model: %s is not generative", s.Name))
	}
	return LLMProfile{
		Name:             s.Name,
		PrefillTokenWork: s.PrefillWork / LLMRefPromptTokens,
		DecodeWork1:      s.DecodeWork1,
		DecodePerSeq:     s.DecodePerItem,
		KVMBPerToken:     s.KVMBPerToken,
		SLO:              s.SLO,
	}
}

// StepWork returns the blocks of one continuous-batching iteration that
// decodes decodeSeqs sequences while prefilling prefillTokens prompt
// tokens (chunked-prefill style: joiners share the step with decoders).
func (p LLMProfile) StepWork(decodeSeqs, prefillTokens int) float64 {
	var w float64
	if prefillTokens > 0 {
		w += float64(prefillTokens) * p.PrefillTokenWork
	}
	if decodeSeqs > 0 {
		w += p.DecodeWork1 * (1 + p.DecodePerSeq*float64(decodeSeqs-1))
	}
	return w
}

// KVForTokens returns the KV-cache memory of n resident tokens.
func (p LLMProfile) KVForTokens(n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(n) * p.KVMBPerToken
}

// Names returns all catalog model names.
func Names() []string {
	out := make([]string, len(catalog))
	for i, s := range catalog {
		out[i] = s.Name
	}
	return out
}
