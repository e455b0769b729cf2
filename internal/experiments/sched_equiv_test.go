package experiments

import (
	"fmt"
	"slices"
	"testing"

	"dilu/internal/cluster"
	"dilu/internal/gpu"
	"dilu/internal/profiler"
	"dilu/internal/sched"
	"dilu/internal/sim"
)

// This file is a differential guard for the scheduler's incremental
// indexes: oldDilu, oldStatic and oldExclusive reimplement the three
// schedulers with the pre-index full-scan logic (literal inventory
// scans, per-call Funcs() maps, all-inactive candidate lists), and the
// tests replay the §5.5 large-scale mix through both implementations,
// requiring identical GPU choices decision by decision. It once caught a
// duplicate entry in the lazy free-GPU heap that the free bitset has
// since replaced; keep it in sync with any future selection-semantics
// change.
//
// Since the heterogeneity work the references carry the capacity-
// normalized formulas (feasibility against Ω·Capacity, scores and free
// shares over ΣReq/Capacity, schedulability guards) — bit-identical to
// the pre-capacity expressions when every Capacity is 1.0 — and the
// replay runs in three fleets: the homogeneous original, a 70/30
// big/small mix, and a homogeneous fleet under fail/drain/join churn.
//
// The state classes key GPUs by memory use as well as ΣReq and ΣLim, so
// the replays also run with KV-cache churn (token-level growth and
// release on live placements, moving GPUs between classes with no Place
// or Remove, refiled only at the next class read) and under non-default
// Dilu options: Ω > 1 (utilizations above 1), an SM-heavy score
// weighting, and −RC, and with kernel-cache affinity over warm node
// caches.

// oldDilu replays Algorithm 1 with the pre-index full-scan logic.
type oldDilu struct {
	opts sched.Options
	clu  *cluster.Cluster
	seq  int
}

func (s *oldDilu) Name() string              { return "old" }
func (s *oldDilu) Cluster() *cluster.Cluster { return s.clu }

func (s *oldDilu) activeGPUs() []*cluster.GPU {
	var out []*cluster.GPU
	for _, g := range s.clu.GPUs() {
		if g.Active() {
			out = append(out, g)
		}
	}
	return out
}

func (s *oldDilu) Schedule(req sched.Request) ([]sched.Decision, error) {
	if req.Instances <= 0 {
		req.Instances = 1
	}
	stages := req.GPUsPerInstance
	if stages <= 0 {
		stages = 1
	}
	var out []sched.Decision
	for k := 0; k < req.Instances; k++ {
		var d sched.Decision
		var err error
		if stages > 1 {
			d, err = s.placeMultiGPU(req, stages)
		} else {
			d, err = s.placeSingle(req)
		}
		if err != nil {
			for _, prev := range out {
				prev.Release()
			}
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

func (s *oldDilu) nextID(fn string) string {
	s.seq++
	return fmt.Sprintf("%s-%d", fn, s.seq)
}

func (s *oldDilu) placeSingle(req sched.Request) (sched.Decision, error) {
	p := req.Profile
	var gpu *cluster.GPU
	if !s.opts.DisableAffinity {
		gpu = s.selectOptGPU(s.affinityGPUs(req.Func), p, req.Func)
	}
	if gpu == nil {
		gpu = s.selectOptGPU(s.activeGPUs(), p, req.Func)
	}
	if gpu == nil {
		gpu = s.freshGPU(p)
	}
	if gpu == nil {
		return sched.Decision{}, sched.ErrNoCapacity
	}
	pl := &cluster.Placement{
		Instance: s.nextID(req.Func), Func: req.Func,
		Req: p.SMReq, Lim: p.SMLim, MemMB: p.MemMB,
	}
	if err := gpu.Place(pl); err != nil {
		return sched.Decision{}, err
	}
	return sched.Decision{Instance: pl.Instance, Func: req.Func,
		GPUs: []*cluster.GPU{gpu}, Placements: []*cluster.Placement{pl}}, nil
}

func shardProfileOld(p profiler.Profile, stages int) profiler.Profile {
	if stages <= 1 {
		return p
	}
	n := float64(stages)
	p.SMReq /= n
	p.SMLim /= n
	p.MemMB /= n
	return p
}

// moreFreeRef is the reference normalized free-memory comparison
// (deliberately re-derived rather than shared with the scheduler).
func moreFreeRef(ga *cluster.GPU, freeA float64, gb *cluster.GPU, freeB float64) bool {
	if ga.MemCapMB == gb.MemCapMB {
		return freeA > freeB
	}
	return freeA*gb.MemCapMB > freeB*ga.MemCapMB
}

func (s *oldDilu) placeMultiGPU(req sched.Request, stages int) (sched.Decision, error) {
	p := shardProfileOld(req.Profile, stages)
	if s.opts.DisableComplementary {
		return s.placeExclusiveStages(req.Func, p, stages)
	}
	type cand struct {
		g    *cluster.GPU
		free float64
	}
	var cands []cand
	for _, g := range s.clu.GPUs() {
		if !g.Schedulable() {
			continue
		}
		if g.SumReq+p.SMReq > sched.Omega*g.Capacity+1e-9 {
			continue
		}
		if g.SumLim+p.SMLim > s.opts.Gamma*g.Capacity+1e-9 {
			continue
		}
		if g.MemUsedMB+p.MemMB > g.MemCapMB {
			continue
		}
		cands = append(cands, cand{g, g.MemCapMB - g.MemUsedMB})
	}
	if len(cands) < stages {
		return sched.Decision{}, sched.ErrNoCapacity
	}
	for i := 0; i < stages; i++ {
		best := i
		for j := i + 1; j < len(cands); j++ {
			if moreFreeRef(cands[j].g, cands[j].free, cands[best].g, cands[best].free) {
				best = j
			}
		}
		cands[i], cands[best] = cands[best], cands[i]
	}
	id := s.nextID(req.Func)
	d := sched.Decision{Instance: id, Func: req.Func}
	for i := 0; i < stages; i++ {
		pl := &cluster.Placement{
			Instance: fmt.Sprintf("%s/s%d", id, i), Func: req.Func,
			Req: p.SMReq, Lim: p.SMLim, MemMB: p.MemMB,
		}
		if err := cands[i].g.Place(pl); err != nil {
			d.Release()
			return sched.Decision{}, err
		}
		d.GPUs = append(d.GPUs, cands[i].g)
		d.Placements = append(d.Placements, pl)
	}
	return d, nil
}

// placeExclusiveStages is the −RC multi-GPU path: a fresh GPU per stage.
func (s *oldDilu) placeExclusiveStages(fn string, p profiler.Profile, stages int) (sched.Decision, error) {
	id := s.nextID(fn)
	d := sched.Decision{Instance: id, Func: fn}
	for i := 0; i < stages; i++ {
		g := s.freshGPU(p)
		if g == nil {
			d.Release()
			return sched.Decision{}, sched.ErrNoCapacity
		}
		pl := &cluster.Placement{
			Instance: fmt.Sprintf("%s/s%d", id, i), Func: fn,
			Req: p.SMReq, Lim: p.SMLim, MemMB: p.MemMB,
		}
		if err := g.Place(pl); err != nil {
			d.Release()
			return sched.Decision{}, err
		}
		d.GPUs = append(d.GPUs, g)
		d.Placements = append(d.Placements, pl)
	}
	return d, nil
}

func (s *oldDilu) affinityGPUs(fn string) []*cluster.GPU {
	partners := make(map[string]bool)
	for _, g := range s.activeGPUs() {
		if !g.HostsFunc(fn) {
			continue
		}
		for f := range g.Funcs() {
			if f != fn {
				partners[f] = true
			}
		}
	}
	if len(partners) == 0 {
		return nil
	}
	var out []*cluster.GPU
	for _, g := range s.activeGPUs() {
		if g.HostsFunc(fn) {
			continue
		}
		for f := range g.Funcs() {
			if partners[f] {
				out = append(out, g)
				break
			}
		}
	}
	return out
}

func (s *oldDilu) selectOptGPU(cands []*cluster.GPU, p profiler.Profile, fn string) *cluster.GPU {
	bestScore := 1e18
	bestCold := 2
	var best *cluster.GPU
	for _, g := range cands {
		if !g.Schedulable() {
			continue
		}
		newReq := g.SumReq + p.SMReq
		newLim := g.SumLim + p.SMLim
		newMem := g.MemUsedMB + p.MemMB
		if newReq > sched.Omega*g.Capacity+1e-9 || newLim > s.opts.Gamma*g.Capacity+1e-9 || newMem > g.MemCapMB {
			continue
		}
		if g.HostsFunc(fn) && p.Role == profiler.RoleTraining {
			continue
		}
		score := sched.Alpha * (1 - newReq/g.Capacity)
		if !s.opts.DisableComplementary {
			score += sched.Beta * (1 - newMem/g.MemCapMB)
		}
		if g.HostsFunc(fn) {
			score += 0.5
		}
		// With kernel-cache affinity, warm nodes win exact score ties;
		// scan order breaks the rest.
		cold := 1
		if s.opts.KernelCacheAffinity && g.Node.KernelsWarm(fn) {
			cold = 0
		}
		if score < bestScore || (score == bestScore && cold < bestCold) {
			bestScore, bestCold, best = score, cold, g
		}
	}
	return best
}

func (s *oldDilu) freshGPU(p profiler.Profile) *cluster.GPU {
	minCap := p.SMReq / sched.Omega
	if lc := p.SMLim / s.opts.Gamma; lc > minCap {
		minCap = lc
	}
	for _, g := range s.clu.GPUs() {
		if !g.Active() && g.Schedulable() && minCap <= g.Capacity+1e-9 && p.MemMB <= g.MemCapMB {
			return g
		}
	}
	return nil
}

// oldStatic replays the Static (INFless+/FaST-GS+) best-fit with the
// pre-index full-scan logic: every pick walks the whole active list.
type oldStatic struct {
	useLimit bool
	clu      *cluster.Cluster
	seq      int
}

func (s *oldStatic) Name() string              { return "old-static" }
func (s *oldStatic) Cluster() *cluster.Cluster { return s.clu }

func (s *oldStatic) quota(p profiler.Profile) float64 {
	if s.useLimit {
		return p.SMLim
	}
	return p.SMReq
}

func (s *oldStatic) firstInactiveFit(minCap, memMB float64) *cluster.GPU {
	for _, g := range s.clu.GPUs() {
		if !g.Active() && g.Schedulable() && minCap <= g.Capacity+1e-9 && memMB <= g.MemCapMB {
			return g
		}
	}
	return nil
}

func (s *oldStatic) pick(q, memMB float64, wholeGPU bool) *cluster.GPU {
	if wholeGPU {
		return s.firstInactiveFit(q, memMB)
	}
	var best *cluster.GPU
	bestFree := 2.0
	for _, g := range s.clu.GPUs() {
		if !g.Active() || !g.Schedulable() {
			continue
		}
		if g.SumReq+q > g.Capacity+1e-9 || g.MemUsedMB+memMB > g.MemCapMB {
			continue
		}
		free := 1 - g.Util()
		if free < bestFree {
			bestFree = free
			best = g
		}
	}
	if best != nil {
		return best
	}
	return s.firstInactiveFit(q, memMB)
}

func (s *oldStatic) Schedule(req sched.Request) ([]sched.Decision, error) {
	if req.Instances <= 0 {
		req.Instances = 1
	}
	stages := req.GPUsPerInstance
	if stages <= 0 {
		stages = 1
	}
	prof := shardProfileOld(req.Profile, stages)
	q := s.quota(prof)
	var out []sched.Decision
	fail := func(err error) ([]sched.Decision, error) {
		for _, prev := range out {
			prev.Release()
		}
		return nil, err
	}
	for k := 0; k < req.Instances; k++ {
		s.seq++
		d := sched.Decision{Instance: fmt.Sprintf("%s-%d", req.Func, s.seq), Func: req.Func}
		for i := 0; i < stages; i++ {
			g := s.pick(q, prof.MemMB, stages > 1)
			if g == nil {
				d.Release()
				return fail(sched.ErrNoCapacity)
			}
			pl := &cluster.Placement{
				Instance: fmt.Sprintf("%s/s%d", d.Instance, i), Func: req.Func,
				Req: q, Lim: q, MemMB: prof.MemMB,
				TrueReq: prof.SMReq,
			}
			if err := g.Place(pl); err != nil {
				d.Release()
				return fail(err)
			}
			d.GPUs = append(d.GPUs, g)
			d.Placements = append(d.Placements, pl)
		}
		out = append(out, d)
	}
	return out, nil
}

// oldExclusive replays the Exclusive baseline with a literal first-
// inactive inventory scan instead of the cluster's free set.
type oldExclusive struct {
	clu *cluster.Cluster
	seq int
}

func (s *oldExclusive) Name() string              { return "old-exclusive" }
func (s *oldExclusive) Cluster() *cluster.Cluster { return s.clu }

func (s *oldExclusive) Schedule(req sched.Request) ([]sched.Decision, error) {
	if req.Instances <= 0 {
		req.Instances = 1
	}
	stages := req.GPUsPerInstance
	if stages <= 0 {
		stages = 1
	}
	var out []sched.Decision
	for k := 0; k < req.Instances; k++ {
		s.seq++
		d := sched.Decision{Instance: fmt.Sprintf("%s-%d", req.Func, s.seq), Func: req.Func}
		for i := 0; i < stages; i++ {
			var g *cluster.GPU
			for _, cand := range s.clu.GPUs() {
				if !cand.Active() && cand.Schedulable() &&
					req.Profile.MemMB/float64(stages) <= cand.MemCapMB {
					g = cand
					break
				}
			}
			if g == nil {
				d.Release()
				for _, prev := range out {
					prev.Release()
				}
				return nil, sched.ErrNoCapacity
			}
			pl := &cluster.Placement{
				Instance: fmt.Sprintf("%s/s%d", d.Instance, i), Func: req.Func,
				Req: g.Capacity, Lim: g.Capacity, MemMB: req.Profile.MemMB / float64(stages),
				TrueReq: req.Profile.SMReq / float64(stages),
			}
			if err := g.Place(pl); err != nil {
				d.Release()
				return nil, err
			}
			d.GPUs = append(d.GPUs, g)
			d.Placements = append(d.Placements, pl)
		}
		out = append(out, d)
	}
	return out, nil
}

func optsWithDefaults() sched.Options {
	return sched.Options{Gamma: 1.5}
}

// replayMixEquiv replays the §5.5 arrival/departure sequence through the
// indexed scheduler and its full-scan reference on twin clusters,
// requiring the same GPU choice (or the same failure) for every
// decision. Departures release both sides, so the differential coverage
// includes the index states after removals.
func replayMixEquiv(t *testing.T, sNew, sOld sched.Scheduler) {
	t.Helper()
	replayMixEquivChurn(t, sNew, sOld, false, false)
}

// replayMixEquivChurn is replayMixEquiv with optional deterministic
// churn interleaved into the replay (identically on both clusters).
//
// With churn, every 59th event either retires the next node
// (alternating abrupt failure and drain) or rejoins the oldest retired
// one, so the differential coverage includes evicted placements, free-
// set bits cleared for retired slots, and post-join re-offers.
//
// With kv, every event first grows (two events in three) or halves
// (the third) the KV charge of every stage of one live instance, so
// GPUs change memory column between decisions without a Place or
// Remove. Both sides must agree on every ReserveKV refusal.
func replayMixEquivChurn(t *testing.T, sNew, sOld sched.Scheduler, churn, kv bool) {
	t.Helper()
	horizon := 3600 * sim.Second
	mix := largeScaleMix(3200, horizon, sim.NewRNG(1))
	var retired []int
	churnStep := 0
	applyChurn := func() {
		cluNew, cluOld := sNew.Cluster(), sOld.Cluster()
		nodes := len(cluNew.Nodes)
		churnStep++
		if len(retired) > 2 {
			node := retired[0]
			retired = retired[1:]
			cluNew.JoinNode(cluNew.Nodes[node])
			cluOld.JoinNode(cluOld.Nodes[node])
			return
		}
		node := (churnStep * 131) % nodes
		if churnStep%2 == 0 {
			cluNew.FailNode(cluNew.Nodes[node])
			cluOld.FailNode(cluOld.Nodes[node])
		} else {
			cluNew.DrainNode(cluNew.Nodes[node])
			cluOld.DrainNode(cluOld.Nodes[node])
		}
		retired = append(retired, node)
	}

	var events []lsEvent
	for i, inst := range mix {
		events = append(events, lsEvent{inst.arrive, true, i})
		if inst.depart < horizon {
			events = append(events, lsEvent{inst.depart, false, i})
		}
	}
	slices.SortFunc(events, func(a, b lsEvent) int {
		if a.at != b.at {
			if a.at < b.at {
				return -1
			}
			return 1
		}
		return a.idx - b.idx
	})
	placedNew := map[int][]sched.Decision{}
	placedOld := map[int][]sched.Decision{}
	var live []int // placed instances in arrival order, for a deterministic KV pick
	kvRefusals := 0
	applyKV := func(n int) {
		idx := live[(n*7919)%len(live)]
		dn, do := placedNew[idx], placedOld[idx]
		for k := range dn {
			for st, pn := range dn[k].Placements {
				po := do[k].Placements[st]
				gn, gOld := dn[k].GPUs[st], do[k].GPUs[st]
				if n%3 == 0 {
					gn.ReleaseKV(pn, pn.KVMB/2)
					gOld.ReleaseKV(po, po.KVMB/2)
					continue
				}
				mb := float64(1024 * (1 + n%16))
				okN, okO := gn.ReserveKV(pn, mb), gOld.ReserveKV(po, mb)
				if okN != okO {
					t.Fatalf("event %d: ReserveKV(%v) on %s: new=%v old=%v", n, mb, gn.ID, okN, okO)
				}
				if !okN {
					kvRefusals++
				}
			}
		}
	}
	failures := 0
	for n, ev := range events {
		if churn && n%59 == 0 {
			applyChurn()
		}
		if kv && len(live) > 0 {
			applyKV(n)
		}
		inst := mix[ev.idx]
		if ev.arrive {
			req := sched.Request{Func: inst.fn, Profile: inst.profile,
				Instances: inst.workers, GPUsPerInstance: inst.stages}
			dn, errN := sNew.Schedule(req)
			do, errO := sOld.Schedule(req)
			if (errN == nil) != (errO == nil) {
				t.Fatalf("event %d (%s): err mismatch new=%v old=%v", n, inst.fn, errN, errO)
			}
			if errN == nil {
				for k := range dn {
					var gn, gi []string
					for _, g := range dn[k].GPUs {
						gn = append(gn, g.ID)
					}
					for _, g := range do[k].GPUs {
						gi = append(gi, g.ID)
					}
					if fmt.Sprint(gn) != fmt.Sprint(gi) {
						t.Fatalf("event %d (%s stages=%d workers=%d): GPU mismatch\nnew=%v\nold=%v",
							n, inst.fn, inst.stages, inst.workers, gn, gi)
					}
				}
				placedNew[ev.idx] = dn
				placedOld[ev.idx] = do
				live = append(live, ev.idx)
			} else {
				failures++
			}
		} else {
			for _, d := range placedNew[ev.idx] {
				d.Release()
			}
			for _, d := range placedOld[ev.idx] {
				d.Release()
			}
			delete(placedNew, ev.idx)
			delete(placedOld, ev.idx)
			if i := slices.Index(live, ev.idx); i >= 0 {
				live = slices.Delete(live, i, i+1)
			}
		}
	}
	if len(placedNew) == 0 {
		t.Fatal("degenerate replay: nothing stayed placed")
	}
	t.Logf("replayed %d events, %d capacity failures, %d KV refusals (matched on both sides)",
		len(events), failures, kvRefusals)
}

func TestDiluSchedulerIndexEquivalence(t *testing.T) {
	cluNew := cluster.New(cluster.Config{Nodes: 1000, GPUsPerNode: 4})
	cluOld := cluster.New(cluster.Config{Nodes: 1000, GPUsPerNode: 4})
	replayMixEquiv(t,
		sched.NewDilu(cluNew, sched.Options{}),
		&oldDilu{opts: optsWithDefaults(), clu: cluOld})
}

func TestStaticSchedulerIndexEquivalence(t *testing.T) {
	cluNew := cluster.New(cluster.Config{Nodes: 1000, GPUsPerNode: 4})
	cluOld := cluster.New(cluster.Config{Nodes: 1000, GPUsPerNode: 4})
	replayMixEquiv(t,
		sched.NewINFlessL(cluNew),
		&oldStatic{useLimit: true, clu: cluOld})
}

func TestStaticRequestQuotaIndexEquivalence(t *testing.T) {
	cluNew := cluster.New(cluster.Config{Nodes: 1000, GPUsPerNode: 4})
	cluOld := cluster.New(cluster.Config{Nodes: 1000, GPUsPerNode: 4})
	replayMixEquiv(t,
		sched.NewINFlessR(cluNew),
		&oldStatic{useLimit: false, clu: cluOld})
}

func TestExclusiveSchedulerIndexEquivalence(t *testing.T) {
	cluNew := cluster.New(cluster.Config{Nodes: 1000, GPUsPerNode: 4})
	cluOld := cluster.New(cluster.Config{Nodes: 1000, GPUsPerNode: 4})
	replayMixEquiv(t,
		sched.NewExclusive(cluNew),
		&oldExclusive{clu: cluOld})
}

// heteroEquivConfig is the mixed-fleet topology of the heterogeneous
// differential replays — the same 70/30 class split the hetero_mix
// driver runs, at a size where capacity failures exercise the fallback
// paths on both implementations.
func heteroEquivConfig() cluster.Config {
	return cluster.Config{Nodes: 1000, GPUsPerNode: 4, Classes: heteroClasses()}
}

func TestDiluHeteroIndexEquivalence(t *testing.T) {
	cluNew := cluster.New(heteroEquivConfig())
	cluOld := cluster.New(heteroEquivConfig())
	replayMixEquiv(t,
		sched.NewDilu(cluNew, sched.Options{}),
		&oldDilu{opts: optsWithDefaults(), clu: cluOld})
}

func TestStaticHeteroIndexEquivalence(t *testing.T) {
	cluNew := cluster.New(heteroEquivConfig())
	cluOld := cluster.New(heteroEquivConfig())
	replayMixEquiv(t,
		sched.NewINFlessL(cluNew),
		&oldStatic{useLimit: true, clu: cluOld})
}

func TestExclusiveHeteroIndexEquivalence(t *testing.T) {
	cluNew := cluster.New(heteroEquivConfig())
	cluOld := cluster.New(heteroEquivConfig())
	replayMixEquiv(t,
		sched.NewExclusive(cluNew),
		&oldExclusive{clu: cluOld})
}

func TestDiluChurnIndexEquivalence(t *testing.T) {
	cluNew := cluster.New(cluster.Config{Nodes: 1000, GPUsPerNode: 4})
	cluOld := cluster.New(cluster.Config{Nodes: 1000, GPUsPerNode: 4})
	replayMixEquivChurn(t,
		sched.NewDilu(cluNew, sched.Options{}),
		&oldDilu{opts: optsWithDefaults(), clu: cluOld}, true, false)
}

func TestStaticChurnIndexEquivalence(t *testing.T) {
	cluNew := cluster.New(cluster.Config{Nodes: 1000, GPUsPerNode: 4})
	cluOld := cluster.New(cluster.Config{Nodes: 1000, GPUsPerNode: 4})
	replayMixEquivChurn(t,
		sched.NewINFlessL(cluNew),
		&oldStatic{useLimit: true, clu: cluOld}, true, false)
}

func TestDiluHeteroChurnIndexEquivalence(t *testing.T) {
	cluNew := cluster.New(heteroEquivConfig())
	cluOld := cluster.New(heteroEquivConfig())
	replayMixEquivChurn(t,
		sched.NewDilu(cluNew, sched.Options{}),
		&oldDilu{opts: optsWithDefaults(), clu: cluOld}, true, false)
}

func TestDiluKVChurnIndexEquivalence(t *testing.T) {
	cluNew := cluster.New(cluster.Config{Nodes: 1000, GPUsPerNode: 4})
	cluOld := cluster.New(cluster.Config{Nodes: 1000, GPUsPerNode: 4})
	replayMixEquivChurn(t,
		sched.NewDilu(cluNew, sched.Options{}),
		&oldDilu{opts: optsWithDefaults(), clu: cluOld}, false, true)
}

func TestDiluHeteroKVChurnIndexEquivalence(t *testing.T) {
	cluNew := cluster.New(heteroEquivConfig())
	cluOld := cluster.New(heteroEquivConfig())
	replayMixEquivChurn(t,
		sched.NewDilu(cluNew, sched.Options{}),
		&oldDilu{opts: optsWithDefaults(), clu: cluOld}, true, true)
}

func TestStaticKVChurnIndexEquivalence(t *testing.T) {
	cluNew := cluster.New(cluster.Config{Nodes: 1000, GPUsPerNode: 4})
	cluOld := cluster.New(cluster.Config{Nodes: 1000, GPUsPerNode: 4})
	replayMixEquivChurn(t,
		sched.NewINFlessL(cluNew),
		&oldStatic{useLimit: true, clu: cluOld}, false, true)
}

// TestDiluOptionVariantsIndexEquivalence replays the mix, with KV churn,
// under non-default Dilu options. The reference takes the options as
// given (its own defaults never apply).
func TestDiluOptionVariantsIndexEquivalence(t *testing.T) {
	variants := []struct {
		name string
		opts sched.Options
	}{
		// γ = 2: limits may sum to twice a GPU's capacity.
		{"oversubscribed", sched.Options{Gamma: 2}},
		{"no-complementary", sched.Options{Gamma: 1.5, DisableComplementary: true}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cluNew := cluster.New(cluster.Config{Nodes: 1000, GPUsPerNode: 4})
			cluOld := cluster.New(cluster.Config{Nodes: 1000, GPUsPerNode: 4})
			replayMixEquivChurn(t,
				sched.NewDilu(cluNew, v.opts),
				&oldDilu{opts: v.opts, clu: cluOld}, false, true)
		})
	}
}

// TestDiluKernelCacheAffinityIndexEquivalence replays the mix, with KV
// churn, under KernelCacheAffinity on twin clusters whose node kernel
// caches are warm for a deterministic subset of the placed functions:
// each instance's function is warm on 64 of the 1,000 nodes. Warm GPUs
// then sit inside equal-state classes whose lowest-position member is
// cold, so the class walk must pick the warm member to match the
// reference's (score, coldness, scan order) argmin.
func TestDiluKernelCacheAffinityIndexEquivalence(t *testing.T) {
	opts := optsWithDefaults()
	opts.KernelCacheAffinity = true
	cluNew := cluster.New(cluster.Config{Nodes: 1000, GPUsPerNode: 4})
	cluOld := cluster.New(cluster.Config{Nodes: 1000, GPUsPerNode: 4})
	for _, clu := range []*cluster.Cluster{cluNew, cluOld} {
		for _, n := range clu.Nodes {
			n.Kernels = gpu.NewKernelCache(0)
		}
	}
	// The replay's own mix (same size, horizon and seed), for its names.
	mix := largeScaleMix(3200, 3600*sim.Second, sim.NewRNG(1))
	nodes := len(cluNew.Nodes)
	for i, inst := range mix {
		for k := range 64 {
			node := (i*7 + k*13) % nodes // 13·k mod 1000 is distinct for k < 64
			cluNew.Nodes[node].Kernels.Note(inst.fn)
			cluOld.Nodes[node].Kernels.Note(inst.fn)
		}
	}
	replayMixEquivChurn(t,
		sched.NewDilu(cluNew, opts),
		&oldDilu{opts: opts, clu: cluOld}, false, true)
}
