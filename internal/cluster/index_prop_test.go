package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// These property tests drive random Place/Remove/Drain interleavings
// with KV-cache growth and release in between — and, since the
// lifecycle work, random FailNode/DrainNode/JoinNode churn and per-GPU
// QuarantineGPU/ReadmitGPU on heterogeneous fleets — and, after every
// operation, require each incremental index — the function posting
// lists, the state-class table and its key map, the active bitset, and
// the free bitset — to agree exactly with a from-scratch recomputation
// over the inventory.
// They run under -race via `make test-race-subsys`.

// checkIndexesConsistent recomputes every index from the placements and
// compares. The class comparison goes through Classes (the read API,
// which refiles the GPUs a KV charge left dirty), and duplicates inside
// or across classes are a failure in their own right.
func checkIndexesConsistent(t *testing.T, c *Cluster, step int) {
	t.Helper()

	// Active bitset: its iteration is GPUs() filtered by Active(), and
	// the count matches.
	var wantActive []*GPU
	for _, g := range c.gpus {
		if g.Active() {
			wantActive = append(wantActive, g)
		}
	}
	if got := slices.Collect(c.ActiveGPUs()); !slices.Equal(wantActive, got) {
		t.Fatalf("step %d: active set diverged (len %d vs %d)", step, len(got), len(wantActive))
	}
	if c.OccupiedCount() != len(wantActive) {
		t.Fatalf("step %d: OccupiedCount = %d, want %d", step, c.OccupiedCount(), len(wantActive))
	}

	// Posting index: for every function with a live placement, the
	// hosting GPUs in inventory order; and no dead keys linger. The
	// oracle counts each GPU once per function, however many of its
	// placements belong to it.
	wantPosting := map[string][]*GPU{}
	for _, g := range c.gpus {
		for fn := range g.Funcs() {
			wantPosting[fn] = append(wantPosting[fn], g)
		}
	}
	for fn, want := range wantPosting {
		slices.SortFunc(want, func(a, b *GPU) int { return a.pos - b.pos })
		if got := c.FuncGPUs(fn); !slices.Equal(want, got) {
			t.Fatalf("step %d: posting list for %q diverged: got %d GPUs, want %d",
				step, fn, len(got), len(want))
		}
	}
	for fn := range c.posting {
		if _, ok := wantPosting[fn]; !ok {
			t.Fatalf("step %d: posting index retains dead function %q", step, fn)
		}
	}

	// State classes: every healthy active GPU sits in exactly one
	// class, whose key equals the GPU's live state; each class records
	// its table index and reports its true minimum position; no class is
	// empty; no two classes share a key; the key map holds exactly the
	// live classes' keys; and no inactive or unhealthy GPU is filed
	// anywhere.
	seen := map[*GPU]int{}
	keys := map[classKey]bool{}
	for i, cl := range c.Classes() {
		if cl.slot != i {
			t.Fatalf("step %d: class at table index %d records slot %d", step, i, cl.slot)
		}
		k := cl.key()
		if keys[k] {
			t.Fatalf("step %d: two classes keyed %+v", step, k)
		}
		keys[k] = true
		if c.byKey[k] != cl {
			t.Fatalf("step %d: key map sends %+v to %p, not its class %p", step, k, c.byKey[k], cl)
		}
		if cl.Len() == 0 {
			t.Fatalf("step %d: empty class %+v at %d", step, k, i)
		}
		minPos := math.MaxInt
		for j := range cl.Len() {
			g := cl.Member(j)
			if prev, dup := seen[g]; dup {
				t.Fatalf("step %d: %s appears in classes %d and %d", step, g.ID, prev, i)
			}
			seen[g] = i
			if g.cls != cl || g.slot != j {
				t.Fatalf("step %d: %s back-link (slot %d) disagrees with class heap index %d", step, g.ID, g.slot, j)
			}
			if g.dirty {
				t.Fatalf("step %d: %s still dirty after a class read", step, g.ID)
			}
			if (classKey{g.SumReq, g.SumLim, g.MemUsedMB, g.classIdx}) != k ||
				g.Capacity != cl.Capacity || g.MemCapMB != cl.MemCapMB {
				t.Fatalf("step %d: %s (req=%v lim=%v mem=%v) filed under class %+v",
					step, g.ID, g.SumReq, g.SumLim, g.MemUsedMB, k)
			}
			if !g.Active() || !g.Schedulable() {
				t.Fatalf("step %d: %s (active %v, %s) surfaced from class %d",
					step, g.ID, g.Active(), g.Health(), i)
			}
			minPos = min(minPos, g.pos)
		}
		if cl.MinPos() != minPos || cl.Min().pos != minPos {
			t.Fatalf("step %d: class %d reports min position %d, want %d",
				step, i, cl.MinPos(), minPos)
		}
	}
	if len(c.byKey) != len(keys) {
		t.Fatalf("step %d: key map holds %d keys for %d live classes", step, len(c.byKey), len(keys))
	}
	filed := 0
	for _, g := range c.gpus {
		if g.Active() && g.Schedulable() {
			filed++
		} else if g.cls != nil {
			t.Fatalf("step %d: %s (active %v, %s) still linked to a class", step, g.ID, g.Active(), g.Health())
		}
	}
	if len(seen) != filed {
		t.Fatalf("step %d: state classes cover %d GPUs, want %d healthy active", step, len(seen), filed)
	}

	// Free index: the free bitset holds exactly the schedulable
	// inactive GPUs, and FirstInactiveFit(0, 0) returns the earliest —
	// retired (failed/draining/quarantined) slots never surface.
	var wantFirst *GPU
	for _, g := range c.gpus {
		want := !g.Active() && g.Schedulable()
		if got := c.free[g.pos>>6]&(1<<(g.pos&63)) != 0; got != want {
			t.Fatalf("step %d: %s (active %v, %s) free bit %v, want %v",
				step, g.ID, g.Active(), g.Health(), got, want)
		}
		if want && wantFirst == nil {
			wantFirst = g
		}
	}
	if got := c.FirstInactiveFit(0, 0); got != wantFirst {
		t.Fatalf("step %d: FirstInactiveFit(0, 0) = %v, want %v", step, got, wantFirst)
	}

	// Retired quiescence and capacity accounting.
	var wantCap float64
	for _, g := range c.gpus {
		if g.Active() {
			wantCap += g.Capacity
		}
		if g.Health() == Failed && len(g.Placements) > 0 {
			t.Fatalf("step %d: failed %s still holds %d placements", step, g.ID, len(g.Placements))
		}
	}
	if diff := wantCap - c.OccupiedCapacity(); diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("step %d: OccupiedCapacity = %v, want %v", step, c.OccupiedCapacity(), wantCap)
	}

	// AppendInactiveFit agrees with a filtered inventory scan prefix,
	// with a predicate that accepts every idle GPU and with one that
	// skips some (odd positions), which must stay in the free set.
	for _, fit := range []func(*GPU) bool{
		func(*GPU) bool { return true },
		func(g *GPU) bool { return g.pos%2 == 0 },
	} {
		for _, k := range []int{0, 3} {
			got := c.AppendInactiveFit(nil, k, fit)
			var want []*GPU
			for _, g := range c.gpus {
				if len(want) == k {
					break
				}
				if !g.Active() && g.Schedulable() && fit(g) {
					want = append(want, g)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: AppendInactiveFit(%d) diverged from scan", step, k)
			}
		}
	}
	if got := c.FirstInactiveFit(0, 0); got != wantFirst {
		t.Fatalf("step %d: AppendInactiveFit changed the free set: FirstInactiveFit(0, 0) = %v, want %v",
			step, got, wantFirst)
	}
}

// kvStep grows or shrinks the KV charge of a random live placement —
// the token-level path that moves a GPU between memory columns without
// a Place or Remove. Growth sizes span several columns of a 1 TiB (or
// 512 GiB) GPU, and ReserveKV may refuse when the GPU is full.
func kvStep(rng *rand.Rand, live []*Placement, onGPU map[*Placement]*GPU) {
	p := live[rng.Intn(len(live))]
	g := onGPU[p]
	if rng.Intn(2) == 0 {
		g.ReserveKV(p, float64(rng.Intn(1<<16)))
	} else {
		g.ReleaseKV(p, p.KVMB*rng.Float64())
	}
}

// TestIndexConsistencyProperty interleaves placements, removals, and
// whole-GPU drains under a seeded RNG and checks full index/recompute
// agreement after every single operation.
func TestIndexConsistencyProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			c := New(Config{Nodes: 4, GPUsPerNode: 3, Classes: uniformMem(1 << 20)})
			funcs := []string{"bert", "resnet", "llama", "gpt2", "vgg"}
			var live []*Placement
			onGPU := map[*Placement]*GPU{}
			steps := 400
			if testing.Short() {
				steps = 120
			}
			for step := 0; step < steps; step++ {
				switch op := rng.Intn(12); {
				case op < 5 || len(live) == 0: // place
					g := c.gpus[rng.Intn(len(c.gpus))]
					p := &Placement{
						Instance: fmt.Sprintf("i%d", step),
						Func:     funcs[rng.Intn(len(funcs))],
						Req:      float64(rng.Intn(1000)) / 999, // hits 0 and 1 exactly
						Lim:      rng.Float64() * 1.5,
						MemMB:    float64(rng.Intn(4096)),
					}
					if err := g.Place(p); err == nil {
						live = append(live, p)
						onGPU[p] = g
					}
				case op < 8: // remove one
					i := rng.Intn(len(live))
					p := live[i]
					onGPU[p].Remove(p)
					delete(onGPU, p)
					live = slices.Delete(live, i, i+1)
				case op < 10: // grow or shrink a KV cache
					kvStep(rng, live, onGPU)
				default: // drain a whole GPU
					g := c.gpus[rng.Intn(len(c.gpus))]
					for len(g.Placements) > 0 {
						p := g.Placements[len(g.Placements)-1]
						g.Remove(p)
						delete(onGPU, p)
						if i := slices.Index(live, p); i >= 0 {
							live = slices.Delete(live, i, i+1)
						}
					}
				}
				checkIndexesConsistent(t, c, step)
			}
		})
	}
}

// TestLifecycleIndexConsistencyProperty interleaves placements,
// removals, random node Fail/Drain/Join churn and per-GPU
// Quarantine/Readmit (on idle and busy GPUs) on a heterogeneous (70/30
// big/small) fleet, checking full index/recompute agreement after every
// single operation — the churn extension of the property suite. Runs
// under -race via `make test-race-subsys`.
func TestLifecycleIndexConsistencyProperty(t *testing.T) {
	classes := []GPUClass{
		{Name: "big", Capacity: 1.0, MemCapMB: 1 << 20, Weight: 0.7},
		{Name: "small", Capacity: 0.5, MemCapMB: 1 << 19, Weight: 0.3},
	}
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed * 977))
			c := New(Config{Nodes: 5, GPUsPerNode: 3, Classes: classes})
			funcs := []string{"bert", "resnet", "llama", "gpt2", "vgg"}
			var live []*Placement
			onGPU := map[*Placement]*GPU{}
			forget := func(p *Placement) {
				delete(onGPU, p)
				if i := slices.Index(live, p); i >= 0 {
					live = slices.Delete(live, i, i+1)
				}
			}
			steps := 500
			if testing.Short() {
				steps = 150
			}
			// quarantined counts QuarantineGPU steps on [idle, busy] GPUs.
			var quarantined [2]int
			for step := 0; step < steps; step++ {
				switch op := rng.Intn(17); {
				case op < 5 || (len(live) == 0 && op < 10): // place
					g := c.gpus[rng.Intn(len(c.gpus))]
					p := &Placement{
						Instance: fmt.Sprintf("i%d", step),
						Func:     funcs[rng.Intn(len(funcs))],
						Req:      float64(rng.Intn(1000)) / 999 * g.Capacity,
						Lim:      rng.Float64() * 1.5,
						MemMB:    float64(rng.Intn(4096)),
					}
					// Place refuses failed GPUs; draining accepts direct
					// placements (the scheduler, not the inventory, is
					// the drain gate) — both paths get exercised.
					if err := g.Place(p); err == nil {
						live = append(live, p)
						onGPU[p] = g
					} else if g.Health() != Failed {
						t.Fatalf("step %d: place on %s (%s) failed: %v", step, g.ID, g.Health(), err)
					}
				case op < 8: // remove one
					i := rng.Intn(len(live))
					p := live[i]
					onGPU[p].Remove(p)
					forget(p)
				case op < 10: // grow or shrink a KV cache
					kvStep(rng, live, onGPU)
				case op < 11: // fail a node, evicting its placements
					n := c.Nodes[rng.Intn(len(c.Nodes))]
					evicted := c.FailNode(n)
					for _, p := range evicted {
						forget(p)
					}
					for _, g := range n.GPUs {
						if g.Health() != Failed || g.Active() {
							t.Fatalf("step %d: %s not quiesced by FailNode", step, g.ID)
						}
					}
				case op < 12: // drain a node, placements stay
					n := c.Nodes[rng.Intn(len(c.Nodes))]
					before := 0
					for _, g := range n.GPUs {
						before += len(g.Placements)
					}
					c.DrainNode(n)
					after := 0
					for _, g := range n.GPUs {
						after += len(g.Placements)
						if g.Schedulable() {
							t.Fatalf("step %d: %s schedulable after drain", step, g.ID)
						}
					}
					if before != after {
						t.Fatalf("step %d: drain changed placements %d→%d", step, before, after)
					}
				case op < 14: // join a node back
					n := c.Nodes[rng.Intn(len(c.Nodes))]
					c.JoinNode(n)
					for _, g := range n.GPUs {
						if !g.Schedulable() {
							t.Fatalf("step %d: %s not schedulable after join", step, g.ID)
						}
					}
				case op < 16: // quarantine a healthy GPU, placements stay
					g := c.gpus[rng.Intn(len(c.gpus))]
					if len(live) > 0 && rng.Intn(2) == 0 {
						g = onGPU[live[rng.Intn(len(live))]] // a busy one
					}
					if g.Health() != Healthy {
						break // the health monitor leaves churn-owned GPUs alone
					}
					busy, n := 0, len(g.Placements)
					if n > 0 {
						busy = 1
					}
					quarantined[busy]++
					c.QuarantineGPU(g)
					if g.Schedulable() || len(g.Placements) != n {
						t.Fatalf("step %d: quarantine of %s: %s with %d→%d placements",
							step, g.ID, g.Health(), n, len(g.Placements))
					}
				default: // readmit a GPU; only a quarantined one changes
					g := c.gpus[rng.Intn(len(c.gpus))]
					was := g.Health()
					c.ReadmitGPU(g)
					want := was
					if was == Quarantined {
						want = Healthy
					}
					if g.Health() != want {
						t.Fatalf("step %d: ReadmitGPU moved %s from %s to %s", step, g.ID, was, g.Health())
					}
				}
				checkIndexesConsistent(t, c, step)
			}
			if quarantined[0] == 0 || quarantined[1] == 0 {
				t.Fatalf("quarantine steps on idle/busy GPUs: %v, want both", quarantined)
			}
		})
	}
}

// TestPostingIndexBasics covers the eager 0↔1 transitions directly:
// replicas of one function on a GPU must not duplicate posting entries,
// and the last replica leaving must drop the GPU (and eventually the
// key).
func TestPostingIndexBasics(t *testing.T) {
	c := New(Config{Nodes: 1, GPUsPerNode: 3})
	g0, g2 := c.gpus[0], c.gpus[2]
	p1 := &Placement{Instance: "a", Func: "f", Req: 0.2, MemMB: 10}
	p2 := &Placement{Instance: "b", Func: "f", Req: 0.2, MemMB: 10}
	p3 := &Placement{Instance: "c", Func: "f", Req: 0.2, MemMB: 10}
	if err := g2.Place(p1); err != nil {
		t.Fatal(err)
	}
	if err := g0.Place(p2); err != nil {
		t.Fatal(err)
	}
	if err := g0.Place(p3); err != nil { // second replica: no new entry
		t.Fatal(err)
	}
	if got := c.FuncGPUs("f"); len(got) != 2 || got[0] != g0 || got[1] != g2 {
		t.Fatalf("posting list wrong: %v", got)
	}
	g0.Remove(p2) // one replica left on g0: entry stays
	if got := c.FuncGPUs("f"); len(got) != 2 {
		t.Fatalf("posting list dropped a still-hosting GPU: %v", got)
	}
	g0.Remove(p3)
	if got := c.FuncGPUs("f"); len(got) != 1 || got[0] != g2 {
		t.Fatalf("posting list after drain: %v", got)
	}
	g2.Remove(p1)
	if c.FuncGPUs("f") != nil {
		t.Fatal("posting key must be deleted with the last placement")
	}
}

// TestKVChargeDefersRefile pins the KV fast path: a charge or release
// only marks the GPU dirty (once, allocating nothing), its class keeps
// the old key until the next Classes call, and a Place in between refiles
// the GPU at once so the stale dirty entry is skipped.
func TestKVChargeDefersRefile(t *testing.T) {
	c := New(Config{Nodes: 1, GPUsPerNode: 2, Classes: uniformMem(1000)})
	g := c.gpus[0]
	p := &Placement{Instance: "a", Func: "f", Req: 0.2, MemMB: 100}
	if err := g.Place(p); err != nil {
		t.Fatal(err)
	}
	if !g.ReserveKV(p, 400) || !g.ReserveKV(p, 100) {
		t.Fatal("KV charge refused")
	}
	if !g.dirty || len(c.dirty) != 1 || g.cls.MemUsedMB != 100 {
		t.Fatalf("charge must only mark dirty: dirty=%v list=%d class mem=%v", g.dirty, len(c.dirty), g.cls.MemUsedMB)
	}
	c.Classes()
	if g.dirty || len(c.dirty) != 0 || g.cls.MemUsedMB != 600 {
		t.Fatalf("class read must refile: dirty=%v list=%d class mem=%v", g.dirty, len(c.dirty), g.cls.MemUsedMB)
	}
	g.ReleaseKV(p, 50)
	if err := g.Place(&Placement{Instance: "b", Func: "f", Req: 0.1, MemMB: 10}); err != nil {
		t.Fatal(err)
	}
	if g.dirty || g.cls.MemUsedMB != 560 {
		t.Fatalf("Place must refile at once: dirty=%v class mem=%v", g.dirty, g.cls.MemUsedMB)
	}
	checkIndexesConsistent(t, c, 0)
	if allocs := testing.AllocsPerRun(100, func() {
		g.ReserveKV(p, 1)
		g.ReleaseKV(p, 1)
		c.flushDirty()
	}); allocs != 0 {
		t.Fatalf("KV charge/release/refile cycle allocates %v times", allocs)
	}
}

// TestStateClassMembers covers the class heap directly: GPUs with one
// state share a class whatever their functions, MinWithout skips
// members hosting the function, and a state change moves a GPU out.
func TestStateClassMembers(t *testing.T) {
	c := New(Config{Nodes: 1, GPUsPerNode: 8, Classes: uniformMem(1000)})
	for i, g := range c.gpus {
		fn := "g"
		if i == 0 || i == 1 || i == 3 || i == 6 {
			fn = "f"
		}
		if err := g.Place(&Placement{Instance: fmt.Sprint(i), Func: fn, Req: 0.25, Lim: 0.5, MemMB: 100}); err != nil {
			t.Fatal(err)
		}
	}
	classes := c.Classes()
	if len(classes) != 1 || classes[0].Len() != 8 {
		t.Fatalf("8 equal-state GPUs must share one class: %d classes", len(classes))
	}
	cl := classes[0]
	if cl.Min() != c.gpus[0] || cl.MinWithout("f") != c.gpus[2] || cl.MinWithout("h") != c.gpus[0] {
		t.Fatalf("Min=%s MinWithout(f)=%v", cl.Min().ID, cl.MinWithout("f"))
	}
	if cl.Util() != c.gpus[5].Util() {
		t.Fatalf("class Util %v, member Util %v", cl.Util(), c.gpus[5].Util())
	}
	// KeepLowest merges into a list already holding a lower and a
	// higher position, and keeps only the first k.
	outside := New(Config{Nodes: 1, GPUsPerNode: 9}).gpus
	got := cl.KeepLowest([]*GPU{outside[1], outside[8]}, 4)
	if want := []*GPU{c.gpus[0], outside[1], c.gpus[1], c.gpus[2]}; !slices.Equal(got, want) {
		t.Fatalf("KeepLowest = %v", got)
	}
	if got := cl.KeepLowest(nil, 8); len(got) != 8 || got[7] != c.gpus[7] {
		t.Fatalf("KeepLowest(8) = %v", got)
	}
	c.DrainNode(c.Nodes[0])
	if len(c.Classes()) != 0 || len(c.byKey) != 0 {
		t.Fatal("draining GPUs must leave the class table")
	}
	c.JoinNode(c.Nodes[0])
	p := c.gpus[2].Placements[0]
	c.gpus[2].Remove(p)
	if cl := c.Classes()[0]; cl.Len() != 7 || cl.MinWithout("f") != c.gpus[4] {
		t.Fatalf("after removal: len %d MinWithout(f)=%v", cl.Len(), cl.MinWithout("f"))
	}
	checkIndexesConsistent(t, c, 0)
}
