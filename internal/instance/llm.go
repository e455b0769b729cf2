// Token-level autoregressive serving: the LLM runtime replaces the
// fixed-cost generative batch of Inference with per-sequence progress.
// Each scheduling step decodes one token for every resident sequence
// (and chunk-prefills joiners), per-sequence KV-cache growth is charged
// against device memory through the stage's KVBacking, and a full cache
// forces preemption of the youngest sequence or refusal of the queue
// head — the memory pressure DeepServe-style serverless LLM serving is
// about.
package instance

import (
	"fmt"

	"dilu/internal/metrics"
	"dilu/internal/model"
	"dilu/internal/sim"
)

// LLMConfig parameterizes one token-level serving instance.
type LLMConfig struct {
	Prof model.LLMProfile
	// MaxBatch bounds resident sequences per step; <1 defaults to 8.
	MaxBatch int
	// RunToCompletion disables continuous batching: sequences are
	// admitted only when the running batch has fully drained, the
	// static-batching baseline continuous batching is compared against.
	RunToCompletion bool
}

// llmSeq is one resident sequence's decode state.
type llmSeq struct {
	req       Request
	target    int     // output tokens to produce (≥1)
	generated int     // output tokens produced so far
	kvMB      float64 // KV memory currently reserved for this sequence
	prefill   bool    // the next step performs this sequence's prefill
	firstTok  sim.Time
}

// LLM is a token-level autoregressive serving instance. It embeds the
// same serving core as the fixed-batch Inference runtime, so dispatch,
// resilience, and teardown treat the two alike.
type LLM struct {
	server
	Cfg LLMConfig
	Tok *metrics.TokenRecorder

	seqs   []*llmSeq
	inStep bool
	// spare holds sequence records freed by completion, preemption and
	// Abort; admit reuses them, overwriting every field.
	spare []*llmSeq
	// prefillStep marks the current step as carrying at least one
	// prefill; its KLC is not a decode iteration and is skipped for
	// RCKM's T_min floor, like Inference's prefill steps.
	prefillStep bool

	// lastRefusedID latches the queue head whose admission last failed
	// on KV headroom, so a blocked head is counted once per request
	// rather than once per 5 ms tick.
	lastRefusedID int64

	// onPreempt hands a cache-full-preempted sequence's request back to
	// the serving plane for redispatch, original Arrive stamp intact.
	onPreempt func(req Request)
}

// NewLLM builds a token-level serving instance. Stages must be
// non-empty and each must carry a KVBacking; rec/tok may be shared
// across the function's instances.
func NewLLM(id, fn string, spec *model.Spec, cfg LLMConfig, stages []Stage, rec *metrics.LatencyRecorder, tok *metrics.TokenRecorder) *LLM {
	if len(stages) == 0 {
		panic("instance: llm needs at least one stage")
	}
	for _, st := range stages {
		if st.KV == nil {
			panic("instance: llm stage without KV backing")
		}
	}
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 8
	}
	in := &LLM{server: server{ID: id, Func: fn, Spec: spec, Stages: stages, Rec: rec}, Cfg: cfg, Tok: tok}
	in.applySaturation(1)
	return in
}

// SetOnPreempt installs the serving plane's cache-full preemption hook.
func (in *LLM) SetOnPreempt(fn func(req Request)) { in.onPreempt = fn }

// InFlight returns the number of resident sequences.
func (in *LLM) InFlight() int { return len(in.seqs) }

// Load returns queued plus resident requests.
func (in *LLM) Load() int { return in.queue.len() + len(in.seqs) }

// KVUsedMB returns the KV memory currently reserved across all resident
// sequences (summed over stages) — the recount source for the
// conservation invariant.
func (in *LLM) KVUsedMB() float64 {
	var mb float64
	for _, s := range in.seqs {
		mb += s.kvMB
	}
	return mb
}

// HasRequest reports whether a copy of request id is held, queued or
// resident.
func (in *LLM) HasRequest(id int64) bool {
	for _, s := range in.seqs {
		if s.req.ID == id {
			return true
		}
	}
	return in.queued(id)
}

// reserveKV charges mb of KV memory, split evenly across stages. On any
// stage's refusal the already-charged stages are rolled back and false
// is returned — the cache-full signal. The even split stays exact in
// float64 for the catalog's dyadic per-token footprints at power-of-two
// stage counts, so charge/release cycles accumulate zero drift.
func (in *LLM) reserveKV(mb float64) bool {
	per := mb / float64(len(in.Stages))
	for i, st := range in.Stages {
		if !st.KV.ReserveKV(per) {
			for j := 0; j < i; j++ {
				in.Stages[j].KV.ReleaseKV(per)
			}
			return false
		}
	}
	return true
}

func (in *LLM) releaseKV(mb float64) {
	per := mb / float64(len(in.Stages))
	for _, st := range in.Stages {
		st.KV.ReleaseKV(per)
	}
}

// preemptYoungest evicts the most recently admitted sequence to free KV
// headroom. Its request is handed back for redispatch with the original
// Arrive stamp, so the lost work shows up in recorded latency.
func (in *LLM) preemptYoungest() {
	last := len(in.seqs) - 1
	s := in.seqs[last]
	in.releaseKV(s.kvMB)
	s.kvMB = 0
	in.seqs[last] = nil
	in.seqs = in.seqs[:last]
	in.spare = append(in.spare, s)
	if in.Tok != nil {
		in.Tok.NotePreemption()
	}
	if in.onPreempt != nil {
		in.onPreempt(s.req)
	}
}

// admit moves queue heads into the batch while slots and KV headroom
// last. A head refused on memory stays queued (FIFO order is part of
// the determinism contract) and is counted once via the refusal latch.
func (in *LLM) admit() {
	for in.queue.len() > 0 && len(in.seqs) < in.Cfg.MaxBatch {
		req := in.queue.items()[0]
		prompt := req.PromptTokens
		if prompt < 1 {
			prompt = 1
		}
		target := req.DecodeTokens
		if target < 1 {
			target = 1
		}
		// Prefill writes the prompt's KV plus the first output token's.
		need := in.Cfg.Prof.KVForTokens(prompt + 1)
		if !in.reserveKV(need) {
			if req.ID != in.lastRefusedID {
				in.lastRefusedID = req.ID
				if in.Tok != nil {
					in.Tok.NoteRefusal()
				}
			}
			return
		}
		in.queue.pop(1)
		var s *llmSeq
		if last := len(in.spare) - 1; last >= 0 {
			s = in.spare[last]
			in.spare[last] = nil
			in.spare = in.spare[:last]
		} else {
			s = new(llmSeq)
		}
		*s = llmSeq{req: req, target: target, kvMB: need, prefill: true}
		in.seqs = append(in.seqs, s)
	}
}

// growKV reserves the next output token's KV for every continuing
// sequence, preempting the youngest sequence (and retrying) when the
// cache is full. Freshly admitted sequences already hold their first
// token's KV from admit.
//
// The whole step is charged at once when it fits: one reservation of
// KVForTokens(n) for the n continuing sequences. The catalog's KV
// footprints, model memory and power-of-two stage splits are dyadic, so
// the one sum holds the same bits in every ledger as n single-token
// charges, and a step that fits has every prefix fit. When it does not
// fit, nothing stays charged (the rollback is exact as well) and the
// per-sequence loop runs, reaching the same cap the same way.
func (in *LLM) growKV() {
	// Sequences awaiting prefill were admitted last, so they are the
	// batch's tail: admit appends them and PostTick clears every flag.
	n := len(in.seqs)
	for n > 0 && in.seqs[n-1].prefill {
		n--
	}
	if n == 0 {
		return
	}
	if in.reserveKV(in.Cfg.Prof.KVForTokens(n)) {
		grow := in.Cfg.Prof.KVForTokens(1)
		for _, s := range in.seqs[:n] {
			s.kvMB += grow
		}
		return
	}
	for i := 0; i < len(in.seqs); i++ {
		s := in.seqs[i]
		if s.prefill {
			continue // admit already reserved through the first token
		}
		grow := in.Cfg.Prof.KVForTokens(1)
		for !in.reserveKV(grow) {
			// Cache full: evict the youngest sequence and retry, unless
			// the evicted one was this sequence itself.
			self := i == len(in.seqs)-1
			in.preemptYoungest()
			if self {
				i--
				grow = 0
				break
			}
		}
		s.kvMB += grow
	}
}

// PreTick forms the next scheduling step at a step boundary: admit
// joiners (continuous batching) or a fresh batch (run-to-completion),
// grow continuing sequences' KV, and enqueue the step's block demand.
func (in *LLM) PreTick(now sim.Time) {
	if in.inStep || !in.active {
		return
	}
	if in.queue.len() == 0 && len(in.seqs) == 0 {
		in.setPressured(false)
		return
	}
	// Grow continuing sequences before admitting joiners: resident
	// sequences have KV priority, so a joiner is never admitted only to
	// be evicted for a decoder's next token in the same tick.
	in.growKV()
	if in.Cfg.RunToCompletion {
		if len(in.seqs) == 0 {
			in.admit()
		}
	} else {
		in.admit()
	}
	in.setPressured(in.queue.len() > in.Cfg.MaxBatch)
	if len(in.seqs) == 0 {
		return // queue head refused on memory; retry next tick
	}
	decode, prefillTokens := 0, 0
	for _, s := range in.seqs {
		if s.prefill {
			p := s.req.PromptTokens
			if p < 1 {
				p = 1
			}
			prefillTokens += p
		} else {
			decode++
		}
	}
	in.prefillStep = prefillTokens > 0
	in.applySaturation(min(len(in.seqs), model.MaxIBS))
	in.startStep(now, in.Cfg.Prof.StepWork(decode, prefillTokens))
	in.inStep = true
}

// PostTick advances every resident sequence by one token when the step
// drains, completing sequences that reached their target.
func (in *LLM) PostTick(now sim.Time) {
	if !in.inStep || !drained(in.Stages) {
		return
	}
	done := in.finishStep(now, in.prefillStep)
	in.inStep = false
	kept := in.seqs[:0]
	for _, s := range in.seqs {
		if s.prefill {
			s.prefill = false
			s.firstTok = done
			s.generated = 1
			if in.Tok != nil {
				in.Tok.ObserveTTFT(done - s.req.Arrive)
			}
		} else {
			s.generated++
		}
		if in.Tok != nil {
			in.Tok.AddTokens(1)
		}
		if s.generated < s.target {
			kept = append(kept, s)
			continue
		}
		in.completeSeq(s, done)
		in.spare = append(in.spare, s)
	}
	clear(in.seqs[len(kept):])
	in.seqs = kept
	if in.queue.len() == 0 && len(in.seqs) == 0 {
		// About to leave the active set: clear the pressure flag the next
		// (never-delivered) PreTick would have cleared.
		in.setPressured(false)
	}
}

// completeSeq releases a finished sequence's KV and records its
// samples. The resilience hook gates recording exactly as on the
// fixed-batch path: a losing hedge copy frees memory but leaves no
// trace.
func (in *LLM) completeSeq(s *llmSeq, done sim.Time) {
	in.releaseKV(s.kvMB)
	s.kvMB = 0
	if !in.complete(s.req, done, s.generated) {
		return
	}
	if in.Tok != nil {
		if s.generated > 1 {
			in.Tok.ObserveTPOT((done - s.firstTok) / sim.Duration(s.generated-1))
		}
		in.Tok.NoteRequest()
	}
}

// Abort evicts every resident sequence and drops the queue (forced
// teardown), releasing all KV memory. Uncompleted requests — resident
// first, admission order, then the queue — are returned for gateway
// re-dispatch with their original Arrive stamps.
func (in *LLM) Abort() []Request {
	reqs := make([]Request, 0, in.Load())
	for _, s := range in.seqs {
		in.releaseKV(s.kvMB)
		s.kvMB = 0
		reqs = append(reqs, s.req)
	}
	in.spare = append(in.spare, in.seqs...)
	clear(in.seqs)
	in.seqs = in.seqs[:0]
	in.inStep = false
	in.prefillStep = false
	return in.abort(reqs)
}

// Busy implements Ticker.
func (in *LLM) Busy() bool { return in.queue.len() > 0 || len(in.seqs) > 0 }

func (in *LLM) String() string {
	return fmt.Sprintf("llm[%s %s max=%d stages=%d]", in.ID, in.Spec.Name, in.Cfg.MaxBatch, len(in.Stages))
}
