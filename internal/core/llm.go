package core

import (
	"fmt"

	"dilu/internal/cluster"
	"dilu/internal/gpu"
	"dilu/internal/instance"
	"dilu/internal/metrics"
	"dilu/internal/model"
	"dilu/internal/sim"
	"dilu/internal/workload"
)

// Token-level (LLM) serving support: per-deployment options, the
// KV-cache bridge from instance stages to cluster/device memory
// accounting, and the 1 Hz KV-occupancy sampling the SLO summary's LLM
// block reports. Everything here is dormant — zero state, zero RNG
// draws, byte-identical manifests — unless a deployment passes LLMOpts.

// LLMOpts switches a deployment to the token-level serving runtime:
// requests carry prompt/decode token counts, each scheduling step
// decodes one token per resident sequence, and per-sequence KV-cache
// growth is charged against GPU memory (a full cache preempts the
// youngest sequence or refuses the queue head).
type LLMOpts struct {
	// MaxBatch bounds resident sequences per instance step; <1 defaults
	// to 8.
	MaxBatch int
	// RunToCompletion disables continuous batching: a fresh batch is
	// admitted only when the running one has fully drained — the
	// static-batching baseline continuous batching is compared against.
	RunToCompletion bool
	// TTFT and TPOT are the token-level SLO targets (time to first
	// token; time per output token over the decode phase). Zero disables
	// the corresponding violation count.
	TTFT sim.Duration
	TPOT sim.Duration
	// Tokens samples per-request (prompt, decode) lengths for requests
	// submitted without explicit counts (the arrival-series path); nil
	// falls back to one prompt token and the model's AvgOutTokens.
	Tokens workload.TokenSampler
}

// llmState is a function's token-level serving state.
type llmState struct {
	opts LLMOpts
	prof model.LLMProfile
	// Tok aggregates TTFT/TPOT/throughput/pressure across the function's
	// instances, like the shared LatencyRecorder.
	Tok *metrics.TokenRecorder
	// rng drives the token-length sampler. Forked only for LLM
	// deployments (with a tag disjoint from the arrival forks), so
	// non-LLM runs draw exactly their historical stream.
	rng *sim.RNG
}

func newLLMState(sys *System, f *Function, opts LLMOpts) (*llmState, error) {
	if !f.Spec.Generative {
		return nil, fmt.Errorf("core: %s deploys non-generative model %s with LLMOpts", f.Name, f.Spec.Name)
	}
	opts.Tokens = workload.Prepare(opts.Tokens)
	st := &llmState{
		opts: opts,
		prof: f.Spec.LLM(),
		Tok:  metrics.NewTokenRecorder(f.Name, opts.TTFT, opts.TPOT),
	}
	if opts.Tokens != nil {
		st.rng = sys.rng.Fork(-int64(len(sys.funcs) + 1))
	}
	return st, nil
}

// config builds the instance-level configuration.
func (st *llmState) config() instance.LLMConfig {
	return instance.LLMConfig{
		Prof:            st.prof,
		MaxBatch:        st.opts.MaxBatch,
		RunToCompletion: st.opts.RunToCompletion,
	}
}

// sampleTokens draws one request's (prompt, decode) lengths.
func (st *llmState) sampleTokens() (prompt, decode int) {
	if st.opts.Tokens == nil || st.rng == nil {
		return 0, 0 // the runtime's 1-token floors apply
	}
	return st.opts.Tokens.Sample(st.rng)
}

// TokenStats returns the function's token recorder (nil for fixed-batch
// deployments) — read-only access for drivers and tests.
func (f *Function) TokenStats() *metrics.TokenRecorder {
	if f.llm == nil {
		return nil
	}
	return f.llm.Tok
}

// onPreempt returns a cache-full-preempted sequence's request to the
// gateway: redispatched to the least-loaded instance (possibly the
// preempting one — it re-queues behind the cache-pressure it lost to)
// with its original Arrive stamp, so the lost decode work shows up in
// recorded latency.
func (f *Function) onPreempt(req instance.Request) {
	f.redispatch([]instance.Request{req}, f.sys.Eng.Now())
}

// kvStage charges one LLM stage's KV-cache growth against the stage's
// cluster placement and device resident in lockstep, so the quota-
// conservation invariant's three-way check (placements vs GPU ledger vs
// device residents) holds at token granularity. Admission control is the
// cluster-side MemCapMB check; the resident mirrors whatever the cluster
// accepted.
type kvStage struct {
	g   *cluster.GPU
	p   *cluster.Placement
	res *gpu.Resident
}

// ReserveKV implements instance.KVBacking.
func (k *kvStage) ReserveKV(mb float64) bool {
	if !k.g.ReserveKV(k.p, mb) {
		return false
	}
	k.res.GrowMem(mb)
	return true
}

// ReleaseKV implements instance.KVBacking. The two sides guard
// independently — the cluster clamps to the placement's live KV charge
// (zero after a node-failure eviction), the resident no-ops once
// detached — so every teardown ordering unwinds exactly once.
func (k *kvStage) ReleaseKV(mb float64) {
	k.g.ReleaseKV(k.p, mb)
	k.res.ShrinkMem(mb)
}

// sampleKV is the 1 Hz KV-occupancy probe: cluster-wide reserved KV and
// the largest single-GPU share of device memory, tracked as run peaks
// for the SLO summary's LLM block.
func (sys *System) sampleKV() {
	var total float64
	for _, g := range sys.Clu.GPUs() {
		total += g.KVUsedMB
		if g.MemCapMB > 0 {
			if share := g.KVUsedMB / g.MemCapMB; share > sys.kvPeakShare {
				sys.kvPeakShare = share
			}
		}
	}
	if total > sys.kvPeakMB {
		sys.kvPeakMB = total
	}
}

// llmSLO rolls the token recorders into the summary block; nil unless a
// token-level function was deployed, so prior manifests keep their
// bytes.
func (sys *System) llmSLO() *metrics.LLMSLO {
	if !sys.llmDeployed {
		return nil
	}
	var toks []*metrics.TokenRecorder
	for _, f := range sys.funcs {
		if f.llm != nil {
			toks = append(toks, f.llm.Tok)
		}
	}
	return metrics.SummarizeLLM(sys.Eng.Now(), sys.kvPeakMB, sys.kvPeakShare, toks...)
}
