package instance

import (
	"slices"

	"dilu/internal/metrics"
	"dilu/internal/model"
	"dilu/internal/sim"
)

// Server is the request-serving surface the dispatch plane programs
// against: the fixed-batch Inference runtime and the token-level LLM
// runtime both implement it, so placement, load balancing, resilience
// steals, and teardown are runtime-agnostic.
type Server interface {
	Ticker
	InstID() string
	SetActive(active bool)
	Active() bool
	Enqueue(req Request)
	QueueLen() int
	InFlight() int
	Load() int
	Served() int64
	SetOnComplete(fn func(req Request, done sim.Time) bool)
	StealQueued(id int64) bool
	HasRequest(id int64) bool
	DropQueue() []Request
	Abort() []Request
}

// server is the serving core Inference and LLM embed: identity, stages,
// the local queue, the GPU step over the stages and the completion path.
// The runtimes add only batch formation and in-flight bookkeeping.
type server struct {
	ID     string
	Func   string
	Spec   *model.Spec
	Stages []Stage
	Rec    *metrics.LatencyRecorder

	active bool
	queue  fifo
	served int64

	stepStart sim.Time
	stepWork  float64 // per-stage work of the current step

	// onComplete, when set, intercepts each completion before the latency
	// sample is recorded. Returning false discards the completion
	// unrecorded — a hedge copy that lost its race. Nil (the default)
	// records everything.
	onComplete func(req Request, done sim.Time) bool

	satK satKMemo
}

// InstID returns the instance identifier (Server interface).
func (s *server) InstID() string { return s.ID }

// SetOnComplete installs the resilience layer's completion hook. The
// hook sees every finishing request; returning false suppresses the
// latency sample and the served count for that copy.
func (s *server) SetOnComplete(fn func(req Request, done sim.Time) bool) { s.onComplete = fn }

// SetActive marks the instance ready to serve (cold start complete).
func (s *server) SetActive(active bool) { s.active = active }

// Active reports whether the instance serves requests.
func (s *server) Active() bool { return s.active }

// Enqueue hands a request to the instance's local queue.
func (s *server) Enqueue(req Request) { s.queue.push(req) }

// QueueLen returns queued (not yet executing) requests.
func (s *server) QueueLen() int { return s.queue.len() }

// Served returns the number of completed requests.
func (s *server) Served() int64 { return s.served }

// StealQueued removes the queued (not yet executing) copy of request
// id and reports whether there was one. The hedging layer uses it to
// cancel a hedge race's loser that never started executing.
func (s *server) StealQueued(id int64) bool {
	for i, req := range s.queue.items() {
		if req.ID == id {
			s.queue.remove(i)
			return true
		}
	}
	return false
}

// queued reports whether a copy of request id waits in the queue.
func (s *server) queued(id int64) bool {
	for _, req := range s.queue.items() {
		if req.ID == id {
			return true
		}
	}
	return false
}

// DropQueue fails queued requests back to the caller (instance teardown);
// it returns them for re-dispatch. The returned slice is the queue's old
// buffer: the instance starts a fresh one, so a later Enqueue cannot
// write into it.
func (s *server) DropQueue() []Request { return s.queue.take() }

// abort is the queue half of Abort: it appends the queue to the
// runtime's in-flight requests, drops it and resets the step. The
// cancelled step's blocks leave the GPU too: an instance aborted by a
// batch error stays placed, and blocks left behind would keep drawing
// RCKM grants and hold up its next step's drain.
func (s *server) abort(reqs []Request) []Request {
	reqs = append(reqs, s.queue.take()...)
	s.stepWork = 0
	for _, st := range s.Stages {
		st.Res.ClearWork()
	}
	s.setPressured(false)
	return reqs
}

func (s *server) applySaturation(n int) {
	k := s.satK.get(s.Spec, n)
	for _, st := range s.Stages {
		st.Res.SetSatK(k)
	}
}

func (s *server) setPressured(p bool) {
	for _, st := range s.Stages {
		if st.Client != nil {
			st.Client.SetPressured(p)
		}
	}
}

// startStep splits a step's work evenly over the stages.
func (s *server) startStep(now sim.Time, work float64) {
	s.stepStart = now
	s.stepWork = work / float64(len(s.Stages))
	for _, st := range s.Stages {
		st.Res.AddWork(s.stepWork)
	}
}

// finishStep stamps a drained step's completion and reports its KLC to
// RCKM. Steps carrying a prefill are not reported: the decode step is the
// TPOT-relevant iteration and mixing the two would poison the T_min
// floor.
func (s *server) finishStep(now sim.Time, prefill bool) sim.Time {
	done := completionTime(s.Stages, now)
	if !prefill {
		observe(s.Stages, done-s.stepStart, s.stepWork)
	}
	return done
}

// complete passes one finished request through the completion hook and,
// unless the hook discards it, records its latency (per output token
// when perTok > 1, against the model's per-token SLO) and counts it
// served. The sample carries the request's gateway wait (Dispatch −
// Arrive) so SLO accounting can separate cold-start violations from
// execution-path ones.
func (s *server) complete(req Request, done sim.Time, perTok int) bool {
	if s.onComplete != nil && !s.onComplete(req, done) {
		return false // duplicate copy: already served elsewhere
	}
	if s.Rec != nil {
		lat := (done - req.Arrive) / sim.Duration(perTok)
		s.Rec.ObserveWaitStage(lat, req.Dispatch-req.Arrive, req.ColdStage)
	}
	s.served++
	return true
}

// fifo is an instance's local request queue. Popping from the front of
// a plain slice shrinks its capacity, so the next append reallocates
// about once per request; fifo keeps its backing array and a head index
// instead. A push into a full buffer whose live part is at most half of
// it compacts in place rather than growing, so every operation stays
// amortised O(1) under a long backlog. Popped and vacated slots are
// cleared so the buffer retains no request's strings.
type fifo struct {
	buf  []Request // buf[head:] is the queue, oldest first
	head int
}

func (q *fifo) len() int { return len(q.buf) - q.head }

// items returns the queued requests, oldest first. The slice is valid
// until the next push, pop, remove or take.
func (q *fifo) items() []Request { return q.buf[q.head:] }

func (q *fifo) push(req Request) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && 2*q.len() <= cap(q.buf) {
		q.buf, q.head = slices.Delete(q.buf, 0, q.head), 0
	}
	q.buf = append(q.buf, req)
}

// pop removes the n oldest requests.
func (q *fifo) pop(n int) {
	clear(q.buf[q.head : q.head+n])
	q.head += n
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// remove deletes the i-th oldest request, keeping the order of the rest.
func (q *fifo) remove(i int) {
	q.buf = slices.Delete(q.buf, q.head+i, q.head+i+1) // clears the vacated slot
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// take empties the queue and returns its requests, oldest first. The
// caller owns the returned slice: a non-empty queue hands its buffer
// over and starts a fresh one; an empty one returns nil and keeps it.
func (q *fifo) take() []Request {
	if q.len() == 0 {
		return nil
	}
	reqs := q.items()
	*q = fifo{}
	return reqs
}

// satKMemo caches Spec.InferSatK per batch size for one instance, filled
// on each size's first use, so batch formation does not re-run
// KneeForEff's bisection. Batches never exceed MaxIBS (the profiled IBS
// is at most MaxIBS and pressured batches cap there); a larger size falls
// back to a direct call.
type satKMemo struct {
	k   [model.MaxIBS]float64 // k[n-1] = InferSatK(n)
	set uint64                // bit n-1: k[n-1] is filled
}

// get returns spec.InferSatK(n), which treats n < 1 as 1.
func (m *satKMemo) get(spec *model.Spec, n int) float64 {
	if n < 1 {
		n = 1
	}
	if n > len(m.k) {
		return spec.InferSatK(n)
	}
	if bit := uint64(1) << (n - 1); m.set&bit == 0 {
		m.k[n-1] = spec.InferSatK(n)
		m.set |= bit
	}
	return m.k[n-1]
}

// drained reports whether every stage has executed all its work.
func drained(stages []Stage) bool {
	for _, st := range stages {
		if st.Res.Pending() > 0 {
			return false
		}
	}
	return true
}

// completionTime interpolates when the slowest stage drained. A tick
// labelled T covers the execution interval [T, T+period): work enqueued
// in PreTick(T) runs during that interval, so a drain at fraction f is
// stamped T + f·period (never earlier than the enqueue).
func completionTime(stages []Stage, now sim.Time) sim.Time {
	frac := 0.0
	for _, st := range stages {
		if f := st.Res.CompletionFraction(); f > frac {
			frac = f
		}
	}
	return now + sim.Duration(frac*float64(sim.TickPeriod))
}

// observe reports one iteration's KLC and per-stage work to every
// stage's RCKM client.
func observe(stages []Stage, klc sim.Duration, work float64) {
	for _, st := range stages {
		if st.Client != nil {
			st.Client.ObserveIteration(klc, work)
		}
	}
}
