package instance

import (
	"math/rand"
	"slices"
	"testing"

	"dilu/internal/model"
	"dilu/internal/rckm"
	"dilu/internal/sim"
)

// queueModel is the plain-slice reference for an Inference instance's
// queue and batch: a slice popped from the front, and the batch formed
// from its head exactly as PreTick forms it.
type queueModel struct {
	ibs   int
	queue []Request
	batch []Request
}

// form pops the next batch, as PreTick does at a step boundary.
func (m *queueModel) form() {
	if len(m.batch) > 0 || len(m.queue) == 0 {
		return
	}
	max := m.ibs
	if len(m.queue) > 2*m.ibs {
		max = min(2*m.ibs, model.MaxIBS)
	}
	n := min(len(m.queue), max)
	m.batch = slices.Clone(m.queue[:n])
	m.queue = m.queue[n:]
}

func (m *queueModel) steal(id int64) bool {
	for i, req := range m.queue {
		if req.ID == id {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			return true
		}
	}
	return false
}

func (m *queueModel) has(id int64) bool {
	for _, req := range append(slices.Clip(m.batch), m.queue...) {
		if req.ID == id {
			return true
		}
	}
	return false
}

// handedOff is a request list an instance returned (DropQueue or
// Abort) with the contents it had when returned.
type handedOff struct{ got, want []Request }

// checkServerQueue drives a stage-less Inference instance and the
// reference model through the same operation stream, decoded from data,
// and fails on the first difference in a return value, the queue's
// contents and order, the batch, or the counters. A stage-less instance
// completes a formed batch at its next PostTick, so PreTick and PostTick
// are the batch pop and its completion. Every list handed off by
// DropQueue or Abort must keep its contents through later Enqueues on
// the same instance, and no slot outside the live queue may hold a
// request.
func checkServerQueue(t *testing.T, data []byte) {
	t.Helper()
	b := bytesIn(data)
	ibs := 1 + b.next()%4
	in := &Inference{server: server{ID: "q", Spec: model.ByName("BERT-base")}, IBS: ibs}
	in.SetActive(true)
	m := &queueModel{ibs: ibs}
	var completed []Request
	in.SetOnComplete(func(req Request, _ sim.Time) bool {
		completed = append(completed, req)
		return true
	})
	var handed []handedOff
	var nextID int64
	tenants := [...]string{"alpha", "beta", "gamma"}
	for len(b) > 0 {
		op := b.next()
		switch op % 8 {
		case 0, 1, 2: // a burst of one to eight requests
			for k := 0; k <= op/8%8; k++ {
				nextID++
				req := Request{ID: nextID, Tenant: tenants[nextID%3], PromptTokens: int(nextID)}
				in.Enqueue(req)
				m.queue = append(m.queue, req)
			}
		case 3:
			in.PreTick(0)
			m.form()
		case 4:
			completed = completed[:0]
			in.PostTick(0)
			if !slices.Equal(completed, m.batch) {
				t.Fatalf("completed %v, reference batch %v", ids(completed), ids(m.batch))
			}
			m.batch = nil
		case 5:
			id := nextID - int64(b.next()%16)
			if got, want := in.StealQueued(id), m.steal(id); got != want {
				t.Fatalf("StealQueued(%d) = %v, reference %v", id, got, want)
			}
		case 6:
			id := nextID - int64(b.next()%16)
			if got, want := in.HasRequest(id), m.has(id); got != want {
				t.Fatalf("HasRequest(%d) = %v, reference %v", id, got, want)
			}
		case 7:
			var got, want []Request
			if op/8%2 == 0 {
				got, want = in.DropQueue(), m.queue
			} else {
				got, want = in.Abort(), append(m.batch, m.queue...)
				m.batch = nil
			}
			m.queue = nil
			if !slices.Equal(got, want) {
				t.Fatalf("handed off %v, reference %v", ids(got), ids(want))
			}
			handed = append(handed, handedOff{got, slices.Clone(want)})
		}
		if !slices.Equal(in.queue.items(), m.queue) {
			t.Fatalf("queue %v, reference %v", ids(in.queue.items()), ids(m.queue))
		}
		if !slices.Equal(in.batch, m.batch) {
			t.Fatalf("batch %v, reference %v", ids(in.batch), ids(m.batch))
		}
		if in.QueueLen() != len(m.queue) || in.InFlight() != len(m.batch) ||
			in.Load() != len(m.queue)+len(m.batch) || in.Busy() != (len(m.queue)+len(m.batch) > 0) {
			t.Fatalf("queue %d in flight %d load %d busy %v; reference queue %d batch %d",
				in.QueueLen(), in.InFlight(), in.Load(), in.Busy(), len(m.queue), len(m.batch))
		}
		buf := in.queue.buf
		for i, req := range buf[:cap(buf)] {
			if (i < in.queue.head || i >= len(buf)) && req != (Request{}) {
				t.Fatalf("slot %d outside the live queue [%d, %d) holds request %d", i, in.queue.head, len(buf), req.ID)
			}
		}
		for i, req := range in.batch[len(in.batch):cap(in.batch)] {
			if req != (Request{}) {
				t.Fatalf("batch slot %d past its length holds request %d", len(in.batch)+i, req.ID)
			}
		}
	}
	for _, h := range handed {
		if !slices.Equal(h.got, h.want) {
			t.Fatalf("a handed-off list changed to %v, was %v", ids(h.got), ids(h.want))
		}
	}
}

// The instance queue must behave exactly like a plain slice popped from
// the front, through random mixes of bursts, batch pops, completions,
// steals, lookups, drops and aborts.
func TestServerQueueMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	data := make([]byte, 200)
	for i := 0; i < 1000; i++ {
		rng.Read(data)
		checkServerQueue(t, data)
	}
}

// FuzzServerQueue runs the queue against the slice model on arbitrary
// operation streams.
func FuzzServerQueue(f *testing.F) {
	f.Add([]byte{2, 58, 58, 3, 5, 1, 4, 3, 6, 0, 7, 2, 3, 4})
	f.Add([]byte{0, 58, 3, 58, 3, 4, 58, 15, 2, 5, 3, 3, 4, 7, 0, 58})
	f.Add([]byte{3, 2, 2, 2, 2, 3, 4, 3, 4, 3, 5, 9, 4, 2, 3, 4, 2, 2, 2, 2, 2, 2, 2, 2, 2})
	f.Fuzz(checkServerQueue)
}

// A buffer whose live part fits in half of it compacts in place on the
// push that finds it full, rather than growing; one with more live
// requests grows.
func TestFIFOCompactsInPlace(t *testing.T) {
	var q fifo
	for id := int64(1); id <= 8; id++ {
		q.push(Request{ID: id})
	}
	c := cap(q.buf)
	q.pop(len(q.buf) - 2)
	want := slices.Clone(q.items())
	for id := int64(100); q.len() < c/2+2; id++ {
		q.push(Request{ID: id})
		want = append(want, Request{ID: id})
	}
	if cap(q.buf) != c || q.head != 0 {
		t.Fatalf("cap %d → %d, head %d: want an in-place compaction", c, cap(q.buf), q.head)
	}
	if !slices.Equal(q.items(), want) {
		t.Fatalf("queue %v after compaction, want %v", ids(q.items()), ids(want))
	}
	for q.len() < cap(q.buf) {
		q.push(Request{ID: 0})
	}
	q.pop(1)
	q.push(Request{ID: 0})
	if cap(q.buf) == c {
		t.Fatalf("a buffer with %d of %d slots live compacted instead of growing", c-1, c)
	}
}

// A warm instance serves an Enqueue → PreTick → drain → PostTick cycle
// without allocating: the queue and batch reuse their buffers and the
// LLM runtime reuses its sequence records. Recorders are left out; their
// sample slices grow by design.
func TestWarmCycleAllocatesNothing(t *testing.T) {
	for _, rc := range runtimeCases {
		t.Run(rc.name, func(t *testing.T) {
			w := newWorld(rckm.Exclusive{})
			in, _ := rc.build(t, w, nil, &fakeKV{cap: 1e9})
			in.SetActive(true)
			w.insts = append(w.insts, in)
			id := int64(0)
			cycle := func() {
				// A backlog past the batch limit, so pressured batches and
				// partial pops run too.
				for k := 0; k < 7; k++ {
					id++
					in.Enqueue(tokenReq(id))
				}
				for in.Busy() {
					w.eng.Step()
				}
			}
			for k := 0; k < 4; k++ {
				cycle()
			}
			if got := testing.AllocsPerRun(50, cycle); got != 0 {
				t.Fatalf("%v allocations per warm cycle, want 0", got)
			}
			if in.Served() != id {
				t.Fatalf("served %d of %d", in.Served(), id)
			}
		})
	}
}

// A queue that keeps a long backlog while requests come and go stays
// allocation-free once its buffer has grown: compaction, not growth,
// makes room.
func TestBacklogQueueAllocatesNothing(t *testing.T) {
	var q fifo
	for id := int64(0); id < 1000; id++ {
		q.push(Request{ID: id})
	}
	id := int64(1000)
	got := testing.AllocsPerRun(2000, func() {
		for k := 0; k < 3; k++ {
			q.push(Request{ID: id})
			id++
		}
		q.pop(3)
	})
	if got != 0 {
		t.Fatalf("%v allocations per push-pop round on a backlog, want 0", got)
	}
	if q.len() != 1000 || q.items()[0].ID != id-1000 {
		t.Fatalf("backlog %d, head %d; want 1000 from %d", q.len(), q.items()[0].ID, id-1000)
	}
}
