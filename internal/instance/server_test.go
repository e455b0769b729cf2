package instance

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dilu/internal/metrics"
	"dilu/internal/model"
	"dilu/internal/rckm"
	"dilu/internal/sim"
)

// fakeKV is a KVBacking with a fixed capacity that tracks its balance.
type fakeKV struct{ used, cap float64 }

func (k *fakeKV) ReserveKV(mb float64) bool {
	if k.used+mb > k.cap {
		return false
	}
	k.used += mb
	return true
}

func (k *fakeKV) ReleaseKV(mb float64) { k.used -= mb }

// runtimeCase builds one request-serving runtime on a fresh single-GPU
// world. kv is nil for runtimes without KV accounting.
type runtimeCase struct {
	name     string
	inFlight int // requests the first step of the script takes in flight
	build    func(t *testing.T, w *world, rec *metrics.LatencyRecorder, kv *fakeKV) (Server, *rckm.Client)
}

var runtimeCases = []runtimeCase{
	{"inference", 4, func(t *testing.T, w *world, rec *metrics.LatencyRecorder, _ *fakeKV) (Server, *rckm.Client) {
		spec := model.ByName("BERT-base")
		st := w.addStage(t, "i0", true, spec.InferMemMB, 0.3, 0.6)
		return NewInference("i0", "bert", spec, 2, []Stage{st}, rec), st.Client
	}},
	{"llm", 2, func(t *testing.T, w *world, rec *metrics.LatencyRecorder, kv *fakeKV) (Server, *rckm.Client) {
		spec := model.ByName("LLaMA2-7B")
		st := w.addStage(t, "l0", true, spec.InferMemMB, 0.5, 1.0)
		st.KV = kv
		cfg := LLMConfig{Prof: spec.LLM(), MaxBatch: 2}
		return NewLLM("l0", "llama", spec, cfg, []Stage{st}, rec, nil), st.Client
	}},
}

func tokenReq(id int64) Request {
	return Request{ID: id, PromptTokens: 16, DecodeTokens: 4}
}

func ids(reqs []Request) []int64 {
	out := make([]int64, len(reqs))
	for i, r := range reqs {
		out[i] = r.ID
	}
	return out
}

// One script drives the queue, steal, abort and completion plumbing the
// serving core gives both runtimes.
func TestServerPlumbing(t *testing.T) {
	for _, rc := range runtimeCases {
		t.Run(rc.name, func(t *testing.T) {
			t.Run("steal-abort", func(t *testing.T) {
				w := newWorld(rckm.Exclusive{})
				kv := &fakeKV{cap: 1e9}
				in, client := rc.build(t, w, nil, kv)
				in.SetActive(true)
				w.insts = append(w.insts, in)
				for id := int64(1); id <= 9; id++ {
					in.Enqueue(tokenReq(id))
				}
				if !in.HasRequest(9) {
					t.Fatal("queued request 9 not held")
				}
				if !in.StealQueued(9) {
					t.Fatal("queued request 9 not stolen")
				}
				if in.HasRequest(9) {
					t.Fatal("stolen request 9 still held")
				}
				if in.StealQueued(9) {
					t.Fatal("request 9 stolen twice")
				}

				w.eng.Step() // one tick: a pressured batch goes in flight
				if got := in.InFlight(); got != rc.inFlight {
					t.Fatalf("in flight = %d, want %d", got, rc.inFlight)
				}
				if in.QueueLen() != 8-rc.inFlight {
					t.Fatalf("queued = %d, want %d", in.QueueLen(), 8-rc.inFlight)
				}
				if !in.HasRequest(1) || !in.HasRequest(8) {
					t.Fatal("in-flight 1 or queued 8 not held")
				}
				if in.StealQueued(1) {
					t.Fatal("stole in-flight request 1")
				}
				if !client.Pressured() {
					t.Fatal("backlog past the batch limit did not set pressure")
				}

				// In flight first, then the queue; both are in ID order here.
				if got, want := ids(in.Abort()), []int64{1, 2, 3, 4, 5, 6, 7, 8}; !reflect.DeepEqual(got, want) {
					t.Fatalf("Abort returned %v, want %v", got, want)
				}
				if in.Load() != 0 || in.Busy() || in.HasRequest(1) {
					t.Fatalf("after Abort: load %d busy %v", in.Load(), in.Busy())
				}
				if client.Pressured() {
					t.Fatal("pressure survived Abort")
				}
				if l, ok := in.(*LLM); ok && (l.KVUsedMB() != 0 || kv.used != 0) {
					t.Fatalf("after Abort: KV used %v, backing %v", l.KVUsedMB(), kv.used)
				}
			})

			t.Run("drop-queue", func(t *testing.T) {
				w := newWorld(rckm.Exclusive{})
				in, _ := rc.build(t, w, nil, &fakeKV{cap: 1e9})
				in.Enqueue(tokenReq(1))
				in.Enqueue(tokenReq(2))
				if got := ids(in.DropQueue()); !reflect.DeepEqual(got, []int64{1, 2}) {
					t.Fatalf("DropQueue = %v", got)
				}
				if in.QueueLen() != 0 || in.Busy() {
					t.Fatalf("queue %d busy %v after DropQueue", in.QueueLen(), in.Busy())
				}
			})

			t.Run("discarded-completion", func(t *testing.T) {
				w := newWorld(rckm.Exclusive{})
				rec := metrics.NewLatencyRecorder("f", sim.Second)
				in, _ := rc.build(t, w, rec, &fakeKV{cap: 1e9})
				var seen []int64
				in.SetOnComplete(func(req Request, _ sim.Time) bool {
					seen = append(seen, req.ID)
					return req.ID != 2 // copy 2 lost its race elsewhere
				})
				in.SetActive(true)
				w.insts = append(w.insts, in)
				in.Enqueue(tokenReq(1))
				in.Enqueue(tokenReq(2))
				w.eng.Run(5 * sim.Second)
				if len(seen) != 2 {
					t.Fatalf("hook saw %v, want both requests", seen)
				}
				if in.Served() != 1 || rec.Count() != 1 {
					t.Fatalf("served %d, recorded %d; want the kept copy only", in.Served(), rec.Count())
				}
			})
		})
	}
}

// A full cache preempts the youngest sequence, whether the older one's
// growth evicts it or its own growth does: its KV goes back to the
// backing at once, the instance's recount tracks the backing every tick,
// and both read zero once the survivor completes.
func TestLLMPreemptionReleasesKV(t *testing.T) {
	spec := model.ByName("LLaMA2-7B")
	prof := spec.LLM()
	// Both prefills hold 17 tokens each; the cache has room for zero or
	// one decode token more.
	for _, room := range []int{34, 35} {
		w := newWorld(rckm.Exclusive{})
		kv := &fakeKV{cap: prof.KVForTokens(room) + prof.KVForTokens(1)/2}
		in, _ := runtimeCases[1].build(t, w, nil, kv)
		l := in.(*LLM)
		var preempted []int64
		l.SetOnPreempt(func(req Request) { preempted = append(preempted, req.ID) })
		l.SetActive(true)
		w.insts = append(w.insts, l)
		w.eng.AddTicker(sim.TickerFunc(func(sim.Time) {
			if l.KVUsedMB() != kv.used {
				t.Fatalf("room %d: KV recount %v, backing %v", room, l.KVUsedMB(), kv.used)
			}
		}))
		l.Enqueue(Request{ID: 1, PromptTokens: 16, DecodeTokens: 8})
		l.Enqueue(Request{ID: 2, PromptTokens: 16, DecodeTokens: 8})
		w.eng.Run(5 * sim.Second)
		if !reflect.DeepEqual(preempted, []int64{2}) {
			t.Fatalf("room %d: preempted %v, want the younger sequence 2", room, preempted)
		}
		if l.Served() != 1 || l.KVUsedMB() != 0 || kv.used != 0 {
			t.Fatalf("room %d: served %d, KV used %v, backing %v", room, l.Served(), l.KVUsedMB(), kv.used)
		}
	}
}

// Sequence records go back to the instance on completion, cache-full
// preemption and Abort, and admission reuses them. On a KV-tight
// instance that readmits every preempted and aborted request, a reused
// record must carry nothing of its last sequence: after every tick each
// resident record's target, tokens, first-token stamp and KV charge
// follow from its request and progress alone, no record is both resident
// and spare, the recount equals the backing's charge, and no more
// records exist than the batch ever held.
func TestLLMRecycledSeqsStartClean(t *testing.T) {
	spec := model.ByName("LLaMA2-7B")
	prof := spec.LLM()
	w := newWorld(rckm.Exclusive{})
	kv := &fakeKV{cap: prof.KVForTokens(96)}
	st := w.addStage(t, "l0", true, spec.InferMemMB, 0.5, 1.0)
	st.KV = kv
	const maxBatch = 4
	l := NewLLM("l0", "llama", spec, LLMConfig{Prof: prof, MaxBatch: maxBatch}, []Stage{st}, nil, nil)
	preempted := 0
	l.SetOnPreempt(func(req Request) { preempted++; l.Enqueue(req) })
	l.SetActive(true)
	w.insts = append(w.insts, l)
	w.eng.Run(10 * sim.Millisecond) // every first-token stamp is nonzero

	rng := rand.New(rand.NewSource(28))
	records := map[*llmSeq]bool{} // true once the record has been spare
	reused, abortedSeqs := 0, 0
	var id int64
	for tick := 0; tick < 6000; tick++ {
		if rng.Intn(30) == 0 {
			id++
			l.Enqueue(Request{ID: id, Arrive: w.eng.Now(), PromptTokens: rng.Intn(40), DecodeTokens: rng.Intn(24)})
		}
		if tick%500 == 499 {
			abortedSeqs += l.InFlight()
			for _, req := range l.Abort() {
				l.Enqueue(req)
			}
		}
		w.eng.Step()

		if l.KVUsedMB() != kv.used {
			t.Fatalf("tick %d: KV recount %v, backing %v", tick, l.KVUsedMB(), kv.used)
		}
		for _, s := range l.spare {
			records[s] = true
		}
		for _, s := range l.seqs {
			if records[s] {
				if slices.Contains(l.spare, s) {
					t.Fatalf("tick %d: record of request %d is resident and spare", tick, s.req.ID)
				}
				reused++
			} else {
				records[s] = false
			}
			prompt, target := max(s.req.PromptTokens, 1), max(s.req.DecodeTokens, 1)
			kvWant := prof.KVForTokens(prompt + 1)
			if !s.prefill {
				kvWant = prof.KVForTokens(prompt + s.generated)
				if l.inStep {
					kvWant += prof.KVForTokens(1)
				}
			}
			switch {
			case s.target != target:
				t.Fatalf("tick %d: request %d targets %d tokens, asked %d", tick, s.req.ID, s.target, target)
			case s.prefill && (s.generated != 0 || s.firstTok != 0):
				t.Fatalf("tick %d: request %d awaits prefill with %d tokens, first at %v", tick, s.req.ID, s.generated, s.firstTok)
			case !s.prefill && (s.generated < 1 || s.generated >= s.target || s.firstTok < s.req.Arrive):
				t.Fatalf("tick %d: request %d decoding at %d of %d tokens, first at %v", tick, s.req.ID, s.generated, s.target, s.firstTok)
			case s.kvMB != kvWant:
				t.Fatalf("tick %d: request %d holds %v MB of KV, its progress %v", tick, s.req.ID, s.kvMB, kvWant)
			}
		}
	}
	w.eng.Run(w.eng.Now() + 120*sim.Second)
	if l.Busy() || l.KVUsedMB() != 0 || kv.used != 0 {
		t.Fatalf("after the drain: busy %v, KV used %v, backing %v", l.Busy(), l.KVUsedMB(), kv.used)
	}
	if l.Served() != id {
		t.Fatalf("served %d of %d requests", l.Served(), id)
	}
	if len(records) > maxBatch {
		t.Fatalf("%d sequence records for a batch of at most %d", len(records), maxBatch)
	}
	if reused == 0 || preempted == 0 || abortedSeqs == 0 {
		t.Fatalf("%d reused records, %d preemptions, %d aborted sequences: a case is missing", reused, preempted, abortedSeqs)
	}
	t.Logf("%d requests, %d preemptions, %d aborted sequences, %d reused-record checks", id, preempted, abortedSeqs, reused)
}
