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

// LLM is a token-level autoregressive serving instance. It implements
// Server, so dispatch, resilience, and teardown treat it exactly like
// the fixed-batch Inference runtime.
type LLM struct {
	ID   string
	Func string
	Spec *model.Spec
	Cfg  LLMConfig

	Stages []Stage
	Rec    *metrics.LatencyRecorder
	Tok    *metrics.TokenRecorder

	active bool
	queue  []Request
	seqs   []*llmSeq

	inStep    bool
	stepStart sim.Time
	stepWork  float64 // per-stage work of the current step
	// prefillStep marks the current step as carrying at least one
	// prefill; its KLC is not a decode iteration and is skipped for
	// RCKM's T_min floor, like Inference's prefill steps.
	prefillStep bool

	served int64

	// lastRefusedID latches the queue head whose admission last failed
	// on KV headroom, so a blocked head is counted once per request
	// rather than once per 5 ms tick.
	lastRefusedID int64

	onComplete func(req Request, done sim.Time) bool
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
	in := &LLM{ID: id, Func: fn, Spec: spec, Cfg: cfg, Stages: stages, Rec: rec, Tok: tok}
	in.applySaturation(1)
	return in
}

// InstID returns the instance identifier (Server interface).
func (in *LLM) InstID() string { return in.ID }

// SetOnComplete installs the resilience layer's completion hook.
func (in *LLM) SetOnComplete(fn func(req Request, done sim.Time) bool) { in.onComplete = fn }

// SetOnPreempt installs the serving plane's cache-full preemption hook.
func (in *LLM) SetOnPreempt(fn func(req Request)) { in.onPreempt = fn }

// SetActive marks the instance ready to serve (cold start complete).
func (in *LLM) SetActive(active bool) { in.active = active }

// Active reports whether the instance serves requests.
func (in *LLM) Active() bool { return in.active }

// Enqueue hands a request to the instance's local queue.
func (in *LLM) Enqueue(req Request) { in.queue = append(in.queue, req) }

// QueueLen returns queued (not yet admitted) requests.
func (in *LLM) QueueLen() int { return len(in.queue) }

// InFlight returns the number of resident sequences.
func (in *LLM) InFlight() int { return len(in.seqs) }

// Load returns queued plus resident requests.
func (in *LLM) Load() int { return len(in.queue) + len(in.seqs) }

// Served returns the number of completed requests.
func (in *LLM) Served() int64 { return in.served }

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

// StealQueued removes and returns the queued copy of request id.
func (in *LLM) StealQueued(id int64) (Request, bool) {
	for i, req := range in.queue {
		if req.ID == id {
			in.queue = append(in.queue[:i], in.queue[i+1:]...)
			return req, true
		}
	}
	return Request{}, false
}

// HasRequest reports whether a copy of request id is held, queued or
// resident.
func (in *LLM) HasRequest(id int64) bool {
	for _, s := range in.seqs {
		if s.req.ID == id {
			return true
		}
	}
	for _, req := range in.queue {
		if req.ID == id {
			return true
		}
	}
	return false
}

func (in *LLM) applySaturation(n int) {
	if n < 1 {
		n = 1
	}
	if n > model.MaxIBS {
		n = model.MaxIBS
	}
	k := in.Spec.InferSatK(n)
	for _, st := range in.Stages {
		st.Res.SatK = k
	}
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

// dropSeq releases sequence i's KV and removes it from the batch.
func (in *LLM) dropSeq(i int) *llmSeq {
	s := in.seqs[i]
	in.releaseKV(s.kvMB)
	s.kvMB = 0
	in.seqs = append(in.seqs[:i], in.seqs[i+1:]...)
	return s
}

// preemptYoungest evicts the most recently admitted sequence to free KV
// headroom. Its request is handed back for redispatch with the original
// Arrive stamp, so the lost work shows up in recorded latency.
func (in *LLM) preemptYoungest() bool {
	if len(in.seqs) == 0 {
		return false
	}
	s := in.dropSeq(len(in.seqs) - 1)
	if in.Tok != nil {
		in.Tok.NotePreemption()
	}
	if in.onPreempt != nil {
		in.onPreempt(s.req)
	}
	return true
}

// admit moves queue heads into the batch while slots and KV headroom
// last. A head refused on memory stays queued (FIFO order is part of
// the determinism contract) and is counted once via the refusal latch.
func (in *LLM) admit() {
	for len(in.queue) > 0 && len(in.seqs) < in.Cfg.MaxBatch {
		req := in.queue[0]
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
		in.queue = in.queue[1:]
		in.seqs = append(in.seqs, &llmSeq{req: req, target: target, kvMB: need, prefill: true})
	}
}

// growKV reserves the next output token's KV for every continuing
// sequence, preempting the youngest sequence (and retrying) when the
// cache is full. Freshly admitted sequences already hold their first
// token's KV from admit.
func (in *LLM) growKV() {
	for i := 0; i < len(in.seqs); i++ {
		s := in.seqs[i]
		if s.prefill {
			continue // admit already reserved through the first token
		}
		grow := in.Cfg.Prof.KVForTokens(1)
		for !in.reserveKV(grow) {
			if i == len(in.seqs)-1 {
				// This sequence is itself the youngest: evict it.
				in.dropSeq(i)
				if in.Tok != nil {
					in.Tok.NotePreemption()
				}
				if in.onPreempt != nil {
					in.onPreempt(s.req)
				}
				i--
				grow = 0
				break
			}
			if !in.preemptYoungest() {
				grow = 0
				break
			}
		}
		if grow > 0 {
			s.kvMB += grow
		}
	}
}

// PreTick forms the next scheduling step at a step boundary: admit
// joiners (continuous batching) or a fresh batch (run-to-completion),
// grow continuing sequences' KV, and enqueue the step's block demand.
func (in *LLM) PreTick(now sim.Time) {
	if in.inStep || !in.active {
		return
	}
	if len(in.queue) == 0 && len(in.seqs) == 0 {
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
	in.setPressured(len(in.queue) > in.Cfg.MaxBatch)
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
	in.applySaturation(len(in.seqs))
	work := in.Cfg.Prof.StepWork(decode, prefillTokens)
	in.stepStart = now
	in.stepWork = work / float64(len(in.Stages))
	for _, st := range in.Stages {
		st.Res.AddWork(in.stepWork)
	}
	in.inStep = true
}

func (in *LLM) setPressured(p bool) {
	for _, st := range in.Stages {
		if st.Client != nil {
			st.Client.SetPressured(p)
		}
	}
}

func (in *LLM) stepDone() bool {
	for _, st := range in.Stages {
		if st.Res.Pending() > 0 {
			return false
		}
	}
	return true
}

// completionTime interpolates when the slowest stage drained (see
// Inference.completionTime for the tick-interval convention).
func (in *LLM) completionTime(now sim.Time) sim.Time {
	frac := 0.0
	for _, st := range in.Stages {
		if f := st.Res.CompletionFraction(); f > frac {
			frac = f
		}
	}
	return now + sim.Duration(frac*float64(sim.TickPeriod))
}

// PostTick advances every resident sequence by one token when the step
// drains, completing sequences that reached their target.
func (in *LLM) PostTick(now sim.Time) {
	if !in.inStep || !in.stepDone() {
		return
	}
	done := in.completionTime(now)
	klc := done - in.stepStart
	if !in.prefillStep {
		for _, st := range in.Stages {
			if st.Client != nil {
				st.Client.ObserveIteration(klc, in.stepWork)
			}
		}
	}
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
	}
	// Zero the dropped tail so completed sequences don't pin memory.
	for i := len(kept); i < len(in.seqs); i++ {
		in.seqs[i] = nil
	}
	in.seqs = kept
	if len(in.queue) == 0 && len(in.seqs) == 0 {
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
	if in.onComplete != nil && !in.onComplete(s.req, done) {
		return // duplicate copy: already served elsewhere
	}
	if in.Rec != nil {
		// Per-token latency against the model's per-token SLO, matching
		// the fixed-batch generative path's convention.
		lat := (done - s.req.Arrive) / sim.Duration(s.generated)
		in.Rec.ObserveWaitStage(lat, s.req.Dispatch-s.req.Arrive, s.req.ColdStage)
	}
	if in.Tok != nil {
		if s.generated > 1 {
			in.Tok.ObserveTPOT((done - s.firstTok) / sim.Duration(s.generated-1))
		}
		in.Tok.NoteRequest()
	}
	in.served++
}

// DropQueue fails queued requests back to the caller for re-dispatch.
func (in *LLM) DropQueue() []Request {
	q := in.queue
	in.queue = nil
	return q
}

// Abort evicts every resident sequence and drops the queue (forced
// teardown), releasing all KV memory. Uncompleted requests — resident
// first, admission order, then the queue — are returned for gateway
// re-dispatch with their original Arrive stamps.
func (in *LLM) Abort() []Request {
	reqs := make([]Request, 0, len(in.seqs)+len(in.queue))
	for _, s := range in.seqs {
		in.releaseKV(s.kvMB)
		s.kvMB = 0
		reqs = append(reqs, s.req)
	}
	reqs = append(reqs, in.queue...)
	in.seqs = nil
	in.queue = nil
	in.inStep = false
	in.stepWork = 0
	in.prefillStep = false
	in.setPressured(false)
	return reqs
}

// Idle reports whether the instance has no queued or resident work.
func (in *LLM) Idle() bool { return len(in.queue) == 0 && len(in.seqs) == 0 }

// Busy implements Ticker.
func (in *LLM) Busy() bool { return len(in.queue) > 0 || len(in.seqs) > 0 }

func (in *LLM) String() string {
	return fmt.Sprintf("llm[%s %s max=%d stages=%d]", in.ID, in.Spec.Name, in.Cfg.MaxBatch, len(in.Stages))
}
