package instance

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dilu/internal/model"
)

// refGrowKV is per-sequence KV growth: one single-token charge per
// continuing sequence in admission order, evicting the youngest sequence
// and retrying while the cache is full. LLM.growKV charges the whole step
// at once when it fits and must end in the same state either way. It
// returns how many sequences were evicted for another one and whether
// one was evicted for its own token.
func refGrowKV(in *LLM) (others int, self bool) {
	for i := 0; i < len(in.seqs); i++ {
		s := in.seqs[i]
		if s.prefill {
			continue
		}
		grow := in.Cfg.Prof.KVForTokens(1)
		for !in.reserveKV(grow) {
			last := i == len(in.seqs)-1
			in.preemptYoungest()
			if last {
				self = true
				i--
				grow = 0
				break
			}
			others++
		}
		s.kvMB += grow
	}
	return others, self
}

// bytesIn reads a byte stream one value at a time; an exhausted stream
// reads zeros.
type bytesIn []byte

func (b *bytesIn) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// growKVInstance builds an LLM instance between two decode steps from a
// byte stream: a catalog model, 1, 2 or 4 stages, up to MaxIBS resident
// sequences with their tokens so far, of which a tail awaits prefill,
// and per stage a tight cache, whose room past the resident sequences
// ranges from none to a few tokens more than the step needs, in quarter
// tokens. The same bytes build the same instance; it records the IDs it
// preempts.
func growKVInstance(data []byte) (in *LLM, kvs []*fakeKV, preempted *[]int64) {
	b := bytesIn(data)
	prof := model.ByName([...]string{"LLaMA2-7B", "ChatGLM3-6B"}[b.next()%2]).LLM()
	stages := [...]int{1, 2, 4}[b.next()%3]
	n := 1 + b.next()%model.MaxIBS
	// The last pre sequences were admitted after the last step and await
	// their prefill; admission order makes them a tail of the batch.
	pre := 0
	if v := b.next(); v%4 == 0 {
		pre = v / 4 % (n + 1)
	}
	in = &LLM{Cfg: LLMConfig{Prof: prof}}
	var resident float64
	for i := 0; i < n; i++ {
		tokens := 1 + (b.next()|b.next()<<8)%1024
		s := &llmSeq{req: Request{ID: int64(i + 1)}, kvMB: prof.KVForTokens(tokens), prefill: i >= n-pre}
		resident += s.kvMB
		in.seqs = append(in.seqs, s)
	}
	for j := 0; j < stages; j++ {
		used := float64(64*b.next()) + resident/float64(stages) // other tenants in whole MB
		room := prof.KVForTokens(b.next()%(n+3)) + prof.KVForTokens(1)*float64(b.next()%4)/4
		kv := &fakeKV{used: used, cap: used + room/float64(stages)}
		kvs = append(kvs, kv)
		in.Stages = append(in.Stages, Stage{KV: kv})
	}
	preempted = new([]int64)
	in.onPreempt = func(req Request) { *preempted = append(*preempted, req.ID) }
	return in, kvs, preempted
}

// checkGrowKV runs growKV and refGrowKV on two copies of the instance
// data builds and fails unless they end bit for bit alike: the surviving
// sequences and their KV, the order of preempted requests, and every
// stage's KV balance.
func checkGrowKV(t *testing.T, data []byte) (others int, self bool) {
	t.Helper()
	got, gotKV, gotPre := growKVInstance(data)
	want, wantKV, wantPre := growKVInstance(data)
	got.growKV()
	others, self = refGrowKV(want)
	if len(got.seqs) != len(want.seqs) {
		t.Fatalf("%d sequences survive, per-sequence growth keeps %d", len(got.seqs), len(want.seqs))
	}
	for i, s := range got.seqs {
		w := want.seqs[i]
		if s.req.ID != w.req.ID || math.Float64bits(s.kvMB) != math.Float64bits(w.kvMB) {
			t.Fatalf("sequence %d: request %d with %v MB, per-sequence growth request %d with %v MB",
				i, s.req.ID, s.kvMB, w.req.ID, w.kvMB)
		}
	}
	if !slices.Equal(*gotPre, *wantPre) {
		t.Fatalf("preempted %v, per-sequence growth %v", *gotPre, *wantPre)
	}
	for j, kv := range gotKV {
		if math.Float64bits(kv.used) != math.Float64bits(wantKV[j].used) {
			t.Fatalf("stage %d: KV balance %v, per-sequence growth %v", j, kv.used, wantKV[j].used)
		}
	}
	return others, self
}

// One charge per decode step must leave exactly the state per-sequence
// growth leaves, on random batches at 1, 2 and 4 stages: when the step
// fits, when the cache evicts the youngest sequence for another's token,
// and when a sequence is evicted for its own.
func TestGrowKVMatchesPerSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	data := make([]byte, 4+2*model.MaxIBS+3*4)
	var fits, other, self int
	for i := 0; i < 20_000; i++ {
		rng.Read(data)
		o, s := checkGrowKV(t, data)
		switch {
		case s:
			self++
		case o > 0:
			other++
		default:
			fits++
		}
	}
	if fits == 0 || other == 0 || self == 0 {
		t.Fatalf("%d steps fit, %d evicted another sequence, %d evicted their own: a case is missing", fits, other, self)
	}
	t.Logf("%d steps fit, %d evicted another sequence, %d evicted their own", fits, other, self)
}

// FuzzGrowKV runs the one-charge and per-sequence comparison on
// arbitrary byte streams.
func FuzzGrowKV(f *testing.F) {
	f.Add([]byte{0, 0, 3, 17, 0, 1, 40, 0, 1, 9, 0, 1, 9, 1, 2, 0})
	f.Add([]byte{1, 1, 7, 200, 1, 1, 3, 0, 0, 90, 0, 2, 5, 2, 0, 0, 0, 1, 3, 0, 0, 2, 1})
	f.Add([]byte{0, 2, 31, 255, 3})
	f.Fuzz(func(t *testing.T, data []byte) { checkGrowKV(t, data) })
}
