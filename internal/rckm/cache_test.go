package rckm

import (
	"math"
	"math/rand"
	"testing"

	"dilu/internal/gpu"
	"dilu/internal/sim"
)

// refKLC is the per-tick ΔT computation the cached Client.DeltaT
// replaced: every call rescans the regimes for the current one and its
// window for the minimum.
type refKLC struct {
	klcCur, curWork   float64
	seedSec, seedWork float64
	buckets           []refBucket
}

type refBucket struct {
	work float64
	win  [klcWindowLen]float64
	idx  int
	n    int
}

func (b *refBucket) push(v float64) {
	b.win[b.idx] = v
	b.idx = (b.idx + 1) % klcWindowLen
	if b.n < klcWindowLen {
		b.n++
	}
}

func (b *refBucket) min() float64 {
	if b.n == 0 {
		return 0
	}
	m := b.win[0]
	for i := 1; i < b.n; i++ {
		if v := b.win[i]; v < m {
			m = v
		}
	}
	return m
}

func (r *refKLC) bucketFor(work float64) *refBucket {
	for i := range r.buckets {
		if r.buckets[i].work == work {
			return &r.buckets[i]
		}
	}
	r.buckets = append(r.buckets, refBucket{work: work})
	b := &r.buckets[len(r.buckets)-1]
	if r.seedSec > 0 && r.seedWork > 0 {
		b.push(r.seedSec * work / r.seedWork)
	}
	return b
}

func (r *refKLC) observe(klc sim.Duration, work float64) {
	if work <= 0 || klc <= 0 {
		return
	}
	cur := klc.Seconds()
	r.klcCur, r.curWork = cur, work
	r.bucketFor(work).push(cur)
}

func (r *refKLC) seed(seconds, work float64) {
	if seconds <= 0 {
		return
	}
	r.seedSec = seconds
	if work <= 0 {
		work = 1
	}
	r.seedWork = work
	r.klcCur, r.curWork = seconds, work
	r.bucketFor(work).push(seconds)
}

func (r *refKLC) deltaT() float64 {
	if r.curWork <= 0 {
		return 0
	}
	min := r.bucketFor(r.curWork).min()
	if min <= 0 {
		return 0
	}
	return (r.klcCur - min) / min
}

// klcOp is one call of a random observation stream: an iteration
// observation or a reseed, possibly invalid.
type klcOp struct {
	seed bool
	klc  sim.Duration // seconds ×1e9 for a seed
	work float64
}

// apply runs op on both the client and the reference and reports
// whether their ΔT still agree bit for bit.
func (op klcOp) apply(c *Client, ref *refKLC) bool {
	if op.seed {
		c.SeedKLCWork(op.klc.Seconds(), op.work)
		ref.seed(op.klc.Seconds(), op.work)
	} else {
		c.ObserveIteration(op.klc, op.work)
		ref.observe(op.klc, op.work)
	}
	return math.Float64bits(c.DeltaT()) == math.Float64bits(ref.deltaT())
}

// The cached ΔT equals the per-call bucket scan after every call of a
// seeded random stream over four work regimes. Regimes open one by one,
// so some are first seen after the current one; each gets well over
// klcWindowLen observations, so windows wrap; and the stream mixes in
// reseeds and invalid calls (klc ≤ 0, work ≤ 0, seconds ≤ 0).
func TestDeltaTCacheMatchesScan(t *testing.T) {
	works := []float64{1000, 2500, 4000, 16000}
	rng := rand.New(rand.NewSource(7))
	c, ref := &Client{}, &refKLC{}
	perRegime := make([]int, len(works))
	for i := 0; i < 600; i++ {
		open := 1 + i/120 // regimes seen so far
		if open > len(works) {
			open = len(works)
		}
		r := rng.Intn(open)
		op := klcOp{klc: sim.Duration(1+rng.Intn(50)) * sim.Millisecond, work: works[r]}
		switch p := rng.Intn(20); {
		case p == 0:
			op.klc = -op.klc * sim.Duration(rng.Intn(2))
		case p == 1:
			op.work = -op.work * float64(rng.Intn(2))
		case p == 2:
			op.seed = true
		case p == 3:
			op.seed, op.work = true, 0
		case p == 4:
			op.seed, op.klc = true, 0
		default:
			perRegime[r]++
		}
		if !op.apply(c, ref) {
			t.Fatalf("call %d (%+v): cached ΔT %v, scan %v", i, op, c.DeltaT(), ref.deltaT())
		}
	}
	for r, n := range perRegime {
		if n <= klcWindowLen {
			t.Fatalf("regime %v got %d observations, want > %d", works[r], n, klcWindowLen)
		}
	}
	if c.DeltaT() == 0 {
		t.Fatal("stream ended with ΔT 0: nothing was compared")
	}
}

// FuzzKLCDeltaT: for any observation stream — three bytes per call: the
// kind, the work regime, the cycle — the cached ΔT equals the scan.
func FuzzKLCDeltaT(f *testing.F) {
	f.Add([]byte{0, 1, 10, 0, 1, 5, 0, 1, 20})
	f.Add([]byte{6, 0, 3, 0, 2, 9, 0, 3, 40, 7, 1, 0, 0, 2, 7})
	works := []float64{-1, 0, 1, 2, 4, 1e4}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ref := &Client{}, &refKLC{}
		for i := 0; i+2 < len(data); i += 3 {
			op := klcOp{
				seed: data[i]%8 == 6,
				klc:  sim.Duration(int(data[i+2])-8) * sim.Millisecond,
				work: works[int(data[i+1])%len(works)],
			}
			if !op.apply(c, ref) {
				t.Fatalf("call %d (%+v): cached ΔT %v, scan %v", i/3, op, c.DeltaT(), ref.deltaT())
			}
		}
	})
}

// rateRing is the 4-slot rate window the busy counter replaced, summed
// the old way.
type rateRing struct {
	r   [rateWindowLen]float64
	idx int
}

func (w *rateRing) push(v float64) {
	w.r[w.idx] = v
	w.idx = (w.idx + 1) % rateWindowLen
}

func (w *rateRing) sum() float64 {
	var s float64
	for _, v := range w.r {
		s += v
	}
	return s
}

// The busy counters agree with the float rate ring at every tick: each
// client's busy predicate with its ring's sum > 0, and the manager's
// "others idle" with the others' summed rings == 0. Three clients run
// scripted busy/idle patterns; a fourth registers mid-run and the
// first unregisters later, under each policy that reads the windows.
func TestIdleWindowMatchesRateRing(t *testing.T) {
	type script struct {
		id    string
		slo   bool
		work  func(i int) float64 // blocks added at tick i
		join  int                 // tick of Register
		leave int                 // tick of Unregister; 0 never
	}
	scripts := []script{
		{id: "burst", slo: true, work: func(i int) float64 {
			if i%11 < 3 {
				return 800
			}
			return 0
		}, leave: 150},
		{id: "sparse", slo: true, work: func(i int) float64 {
			if i%9 == 0 {
				return 300
			}
			return 0
		}},
		{id: "train", work: func(i int) float64 {
			if (i/20)%2 == 0 {
				return 2000
			}
			return 0
		}},
		{id: "late", slo: true, work: func(i int) float64 {
			if i%5 == 1 {
				return 100
			}
			return 0
		}, join: 60},
	}
	for _, policy := range []Policy{Dilu{}, TGS{}, FaSTGS{}} {
		t.Run(policy.Name(), func(t *testing.T) {
			dev := gpu.NewDevice("g0")
			m := NewManager(dev, policy, Config{})
			clients := make([]*Client, len(scripts))
			rings := map[*Client]*rateRing{}
			// Both outcomes of both predicates must occur.
			var busy, othersIdle [2]int
			for i := 0; i < 200; i++ {
				for j, s := range scripts {
					if i == s.join {
						res, err := dev.Attach(s.id, 1024)
						if err != nil {
							t.Fatal(err)
						}
						clients[j] = &Client{ID: s.id, Res: res, SLOSensitive: s.slo, Request: 0.3, Limit: 0.6}
						clients[j].SeedKLC(1e-3)
						m.Register(clients[j])
						rings[clients[j]] = &rateRing{}
					}
					if i == s.leave && s.leave > 0 {
						m.Unregister(clients[j])
						dev.Detach(clients[j].Res)
						delete(rings, clients[j])
					}
					if c := clients[j]; c != nil && rings[c] != nil {
						c.Res.AddWork(s.work(i))
						if i%13 == 5 {
							c.ObserveIteration(sim.Duration(2+i%3)*sim.Millisecond, 1)
						}
					}
				}
				for _, c := range m.Clients() {
					rings[c].push(c.Res.ExecutedLast())
				}
				m.Issue(sim.Time(i) * 5 * sim.Millisecond)
				for _, c := range m.Clients() {
					if want := rings[c].sum() > 0; c.busy() != want {
						t.Fatalf("tick %d: %s busy() = %v, ring sum %v", i, c.ID, c.busy(), rings[c].sum())
					}
					var others float64
					for _, o := range m.Clients() {
						if o != c {
							others += rings[o].sum()
						}
					}
					if want := others == 0; m.othersIdle(c) != want {
						t.Fatalf("tick %d: %s othersIdle() = %v, others' ring sum %v", i, c.ID, m.othersIdle(c), others)
					}
					busy[b2i(c.busy())]++
					othersIdle[b2i(m.othersIdle(c))]++
				}
				dev.ExecuteTick()
			}
			if min(busy[0], busy[1], othersIdle[0], othersIdle[1]) == 0 {
				t.Fatalf("busy %v, others-idle %v (false, true) client-ticks: a predicate never changed", busy, othersIdle)
			}
		})
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
