// Package sched implements Dilu's resourcing-complementary scheduling
// (§3.3, Algorithm 1) and the cluster-level baseline schedulers of the
// evaluation (Exclusive, INFless+-l/-r, FaST-GS+), all operating on the
// ⟨request, limit⟩/memory bookkeeping of internal/cluster.
//
// The Dilu scheduler follows the paper's three principles: workload-
// affinity-first collocation (Principle-1), defragmentation through
// resource complementarity with best-fit scoring and memory worst-fit for
// multi-GPU LLMs (Principle-2), and oversubscription bounded by Ω and γ
// with QoS guarantees (Principle-3).
package sched

import (
	"errors"
	"slices"
	"strconv"

	"dilu/internal/cluster"
	"dilu/internal/profiler"
)

// Request asks for n instances of one function to be placed.
type Request struct {
	Func    string
	Profile profiler.Profile
	// Instances is n_j: the number of instances (or training workers).
	Instances int
	// GPUsPerInstance > 1 shards one instance over multiple GPU fragments
	// (LLM pipeline stages); the profile's quotas and memory then apply
	// per stage.
	GPUsPerInstance int
}

// Decision is one placed instance.
type Decision struct {
	Instance   string
	Func       string
	GPUs       []*cluster.GPU
	Placements []*cluster.Placement
}

// Release returns the decision's reservations to the cluster. Removing
// a placement already evicted (by cluster.FailNode) is a no-op, so
// releasing a decision after a failure double-counts nothing.
func (d *Decision) Release() {
	for i, p := range d.Placements {
		d.GPUs[i].Remove(p)
	}
}

// OnFailedGPU reports whether any of the decision's GPUs has failed —
// the instance's reservations are gone and it must be rescheduled.
func (d *Decision) OnFailedGPU() bool {
	for _, g := range d.GPUs {
		if g.Health() == cluster.Failed {
			return true
		}
	}
	return false
}

// OnRetiredGPU reports whether any of the decision's GPUs has left
// service (failed, draining, or quarantined) — the gateway should
// migrate the instance off the device.
func (d *Decision) OnRetiredGPU() bool {
	for _, g := range d.GPUs {
		if !g.Schedulable() {
			return true
		}
	}
	return false
}

// OnGPU reports whether the decision holds a reservation on g — fault
// injection uses it to find the instances whose batches a device error
// aborts.
func (d *Decision) OnGPU(g *cluster.GPU) bool {
	for _, dg := range d.GPUs {
		if dg == g {
			return true
		}
	}
	return false
}

// Scheduler places deployment requests onto a cluster.
type Scheduler interface {
	Name() string
	Cluster() *cluster.Cluster
	Schedule(req Request) ([]Decision, error)
}

// ErrNoCapacity is returned when no GPU (active or fresh) satisfies the
// constraints.
var ErrNoCapacity = errors.New("sched: no GPU satisfies constraints")

// instanceID builds "<fn>-<seq>" without fmt: instance-ID construction
// sits on the placement hot path, and Sprintf's interface boxing plus
// verb parsing tripled its allocation cost.
func instanceID(fn string, seq int) string {
	buf := make([]byte, 0, len(fn)+12)
	buf = append(buf, fn...)
	buf = append(buf, '-')
	buf = strconv.AppendInt(buf, int64(seq), 10)
	return string(buf)
}

// stageID builds the "<id>/s<i>" per-stage instance ID of a multi-GPU
// (pipeline-sharded) deployment.
func stageID(id string, stage int) string {
	buf := make([]byte, 0, len(id)+8)
	buf = append(buf, id...)
	buf = append(buf, '/', 's')
	buf = strconv.AppendInt(buf, int64(stage), 10)
	return string(buf)
}

// ---------------------------------------------------------------------------
// Dilu: Algorithm 1.

// Algorithm 1's fixed hyper-parameters: Omega bounds Σ request quotas
// per GPU (Ω), and Alpha and Beta weight the SM and memory terms of the
// fragmentation score.
const (
	Omega = 1.0
	Alpha = 0.5
	Beta  = 0.5
)

// Options are the Dilu scheduler's settable hyper-parameters.
type Options struct {
	// Gamma bounds Σ limit quotas per GPU (γ, default 1.5 — the
	// oversubscription coefficient of Figure 18(a)).
	Gamma float64
	// DisableAffinity turns off Principle-1 (the -WA ablation).
	DisableAffinity bool
	// DisableComplementary turns off Principle-2 (the -RC ablation):
	// memory is dropped from the score and multi-GPU LLM deployment
	// falls back to whole fresh GPUs.
	DisableComplementary bool
	// KernelCacheAffinity breaks fragmentation-score ties toward GPUs
	// whose node's kernel cache is warm for the function, so a relaunch
	// lands where its JIT artifacts already live and the cold start
	// shrinks. Ties only — the score itself is untouched.
	KernelCacheAffinity bool
}

func (o Options) withDefaults() Options {
	if o.Gamma <= 0 {
		o.Gamma = 1.5
	}
	return o
}

// Dilu is the Algorithm 1 scheduler.
type Dilu struct {
	opts Options
	clu  *cluster.Cluster
	seq  int

	// Scratch buffers reused across Schedule calls (the scheduler is
	// single-threaded per cluster) so the per-request hot path does not
	// allocate candidate slices.
	affScratch   []*cluster.GPU
	inactScratch []*cluster.GPU
	candScratch  []multiCand
	frontScratch []*cluster.GPU
	topScratch   []float64
	partners     map[string]bool
}

// NewDilu builds the scheduler over a cluster.
func NewDilu(clu *cluster.Cluster, opts Options) *Dilu {
	return &Dilu{opts: opts.withDefaults(), clu: clu}
}

// Name implements Scheduler.
func (s *Dilu) Name() string { return "Dilu" }

// Cluster implements Scheduler.
func (s *Dilu) Cluster() *cluster.Cluster { return s.clu }

// Options returns the active hyper-parameters.
func (s *Dilu) Options() Options { return s.opts }

// Schedule implements Algorithm 1's ScheduleInstances loop.
func (s *Dilu) Schedule(req Request) ([]Decision, error) {
	if req.Instances <= 0 {
		req.Instances = 1
	}
	stages := req.GPUsPerInstance
	if stages <= 0 {
		stages = 1
	}
	var out []Decision
	for k := 0; k < req.Instances; k++ {
		var d Decision
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

func (s *Dilu) nextID(fn string) string {
	s.seq++
	return instanceID(fn, s.seq)
}

// placeSingle implements lines 10-18 for a one-GPU instance.
func (s *Dilu) placeSingle(req Request) (Decision, error) {
	p := &req.Profile
	var gpu *cluster.GPU
	if !s.opts.DisableAffinity {
		gpu = s.selectOptGPU(s.affinityGPUs(req.Func), p, req.Func)
	}
	if gpu == nil {
		gpu = s.selectOptGPUActive(p, req.Func)
	}
	if gpu == nil {
		gpu = s.freshGPU(p)
	}
	if gpu == nil {
		return Decision{}, ErrNoCapacity
	}
	pl := &cluster.Placement{
		Instance: s.nextID(req.Func), Func: req.Func,
		Req: p.SMReq, Lim: p.SMLim, MemMB: p.MemMB,
	}
	if err := gpu.Place(pl); err != nil {
		return Decision{}, err
	}
	return Decision{Instance: pl.Instance, Func: req.Func,
		GPUs: []*cluster.GPU{gpu}, Placements: []*cluster.Placement{pl}}, nil
}

// multiCand is one placeMultiGPU candidate.
type multiCand struct {
	g    *cluster.GPU
	free float64
}

// moreFreeMem reports whether a has a strictly larger normalized
// free-memory share than b. Equal-capacity GPUs compare raw free MB —
// bit-identical to the pre-heterogeneity comparison — while mixed caps
// cross-multiply instead of dividing, avoiding rounding collapse.
func moreFreeMem(a, b multiCand) bool {
	if a.g.MemCapMB == b.g.MemCapMB {
		return a.free > b.free
	}
	return a.free*b.g.MemCapMB > b.free*a.g.MemCapMB
}

// placeMultiGPU shards an LLM instance over `stages` GPU fragments using
// the memory worst-fit strategy of Principle-2 (most remaining memory
// first, minimizing pipeline depth and end-to-end latency). The whole-
// instance profile is divided across stages: each fragment carries 1/n of
// the quotas and memory.
//
// The selection below is a swap-based selection of the `stages` GPUs
// with the most normalized free memory over the feasible GPUs in
// inventory order, ties toward earlier list positions. Candidates come
// from the cluster's indexes rather than an inventory scan, and the
// list keeps every GPU that selection could pick or let a swap move, so
// it picks what the full list would:
//   - Active GPUs come from the state classes, one feasibility check
//     per class. A first pass over the feasible classes finds the
//     `stages`-th largest free share. A GPU whose share is below it by
//     more than rounding (1e-9, far above the few ulps a share or a
//     cross-multiplied comparison can be off) is beaten by `stages`
//     other GPUs and is never picked, so a second pass keeps every
//     member of each feasible class whose share is at or above that
//     share less 1e-9: ties stay in.
//   - Idle GPUs all tie at a normalized free share of 1.0 (with zero
//     use, free·capB == free'·capA exactly), so the tie goes to the
//     earliest position and only the first `stages` feasible idle GPUs
//     can be picked.
//   - The selection swaps the GPU at the front position into the slot
//     of the one it picks, which reorders later ties. Only the first
//     `stages` entries of the full list ever sit at a front position,
//     so those are kept too: the first `stages` idle GPUs above and the
//     first `stages` feasible active GPUs, which each feasible state
//     class yields from its position heap in O(stages).
//
// Dropping a GPU that is never picked and never moved changes neither
// the picks nor the relative order of the rest, so any sub-list that
// keeps those GPUs selects alike. The same argument makes the survivor
// count reach `stages` exactly when the full feasible count does.
func (s *Dilu) placeMultiGPU(req Request, stages int) (Decision, error) {
	if s.opts.DisableComplementary {
		return s.placeExclusiveStages(req, stages)
	}
	prof := shardProfile(req.Profile, stages)
	p := &prof
	feasible := func(g *cluster.GPU) bool {
		return g.Schedulable() && s.fits(g.SumReq, g.SumLim, g.MemUsedMB, g.Capacity, g.MemCapMB, p)
	}
	// top holds the largest normalized free shares collected so far, in
	// descending order, at most `stages` of them.
	top := s.topScratch[:0]
	note := func(f float64) {
		if len(top) == stages {
			if f <= top[stages-1] {
				return
			}
			top = top[:stages-1]
		}
		i := len(top)
		for i > 0 && top[i-1] < f {
			i--
		}
		top = slices.Insert(top, i, f)
	}
	inactives := s.clu.AppendInactiveFit(s.inactScratch[:0], stages, feasible)
	s.inactScratch = inactives
	for _, g := range inactives {
		note((g.MemCapMB - g.MemUsedMB) / g.MemCapMB)
	}
	// front collects the `stages` feasible active GPUs earliest in
	// inventory order, which the selection's swaps may move.
	classes := s.clu.Classes()
	front := s.frontScratch[:0]
	for _, cl := range classes {
		if !s.fits(cl.SumReq, cl.SumLim, cl.MemUsedMB, cl.Capacity, cl.MemCapMB, p) {
			continue
		}
		front = cl.KeepLowest(front, stages)
		// Members share the free share; more than `stages` copies of it
		// cannot change top.
		for range min(cl.Len(), stages) {
			note((cl.MemCapMB - cl.MemUsedMB) / cl.MemCapMB)
		}
	}
	s.topScratch = top
	s.frontScratch = front
	if len(top) < stages {
		return Decision{}, ErrNoCapacity // fewer than `stages` feasible GPUs
	}
	cutoff := top[stages-1] - 1e-9
	cands := s.candScratch[:0]
	for _, cl := range classes {
		free := cl.MemCapMB - cl.MemUsedMB
		if free/cl.MemCapMB < cutoff || !s.fits(cl.SumReq, cl.SumLim, cl.MemUsedMB, cl.Capacity, cl.MemCapMB, p) {
			continue
		}
		for i := range cl.Len() {
			cands = append(cands, multiCand{cl.Member(i), free})
		}
	}
	for _, g := range front {
		cands = append(cands, multiCand{g, g.MemCapMB - g.MemUsedMB})
	}
	for _, g := range inactives {
		cands = append(cands, multiCand{g, g.MemCapMB - g.MemUsedMB})
	}
	slices.SortFunc(cands, func(a, b multiCand) int { return a.g.Pos() - b.g.Pos() })
	cands = slices.CompactFunc(cands, func(a, b multiCand) bool { return a.g == b.g })
	s.candScratch = cands
	// Worst fit: swap-based selection of the GPUs with the largest
	// normalized free-memory share (equal-capacity GPUs compare raw free
	// MB, so homogeneous fleets rank exactly as before normalization).
	// It is not a stable sort: see the doc comment for what that costs.
	for i := 0; i < stages; i++ {
		best := i
		for j := i + 1; j < len(cands); j++ {
			if moreFreeMem(cands[j], cands[best]) {
				best = j
			}
		}
		cands[i], cands[best] = cands[best], cands[i]
	}
	id := s.nextID(req.Func)
	d := Decision{Instance: id, Func: req.Func}
	for i := 0; i < stages; i++ {
		pl := &cluster.Placement{
			Instance: stageID(id, i), Func: req.Func,
			Req: p.SMReq, Lim: p.SMLim, MemMB: p.MemMB,
		}
		if err := cands[i].g.Place(pl); err != nil {
			d.Release()
			return Decision{}, err
		}
		d.GPUs = append(d.GPUs, cands[i].g)
		d.Placements = append(d.Placements, pl)
	}
	return d, nil
}

// placeExclusiveStages is the -RC fallback: each stage takes a fresh GPU.
func (s *Dilu) placeExclusiveStages(req Request, stages int) (Decision, error) {
	prof := shardProfile(req.Profile, stages)
	id := s.nextID(req.Func)
	d := Decision{Instance: id, Func: req.Func}
	for i := 0; i < stages; i++ {
		g := s.freshGPU(&prof)
		if g == nil {
			d.Release()
			return Decision{}, ErrNoCapacity
		}
		pl := &cluster.Placement{
			Instance: stageID(id, i), Func: req.Func,
			Req: prof.SMReq, Lim: prof.SMLim, MemMB: prof.MemMB,
		}
		if err := g.Place(pl); err != nil {
			d.Release()
			return Decision{}, err
		}
		d.GPUs = append(d.GPUs, g)
		d.Placements = append(d.Placements, pl)
	}
	return d, nil
}

// affinityGPUs computes 𝐺_WA: active GPUs hosting functions that already
// collocate with req.Func elsewhere (replicating proven collocation
// patterns, Figure 5(b)), excluding GPUs that already host req.Func
// itself so instances of one function spread across fragments.
//
// Both steps are served by the cluster's posting index instead of
// scanning all active GPUs: partners are collected from the GPUs
// hosting fn, and the candidate set is the union of the partners'
// posting lists. The union is sorted back into inventory order and
// deduplicated, which reproduces exactly the list an ActiveGPUs filter
// scan would have built (selectOptGPU breaks score ties toward earlier
// candidates, so the order is part of the contract).
func (s *Dilu) affinityGPUs(fn string) []*cluster.GPU {
	hosts := s.clu.FuncGPUs(fn)
	if len(hosts) == 0 {
		return nil
	}
	if s.partners == nil {
		s.partners = make(map[string]bool, 8)
	}
	partners := s.partners
	clear(partners)
	for _, g := range hosts {
		for _, p := range g.Placements {
			if p.Func != fn {
				partners[p.Func] = true
			}
		}
	}
	if len(partners) == 0 {
		return nil
	}
	out := s.affScratch[:0]
	for f := range partners {
		for _, g := range s.clu.FuncGPUs(f) {
			if !g.HostsFunc(fn) {
				out = append(out, g)
			}
		}
	}
	slices.SortFunc(out, func(a, b *cluster.GPU) int { return a.Pos() - b.Pos() })
	out = slices.Compact(out) // a GPU hosting k partners appeared k times
	s.affScratch = out
	return out
}

// selectOptGPU is Algorithm 1's SelectOptGPU: the feasible candidate with
// the minimum weighted fragmentation score. GPUs already hosting the
// function are soft-penalized so replicas of one function spread over
// fragments (same-function instances peak together, so stacking them
// recreates the contention the affinity principle avoids).
func (s *Dilu) selectOptGPU(cands []*cluster.GPU, p *profiler.Profile, fn string) *cluster.GPU {
	bestScore := 1e18
	bestCold := 2
	var best *cluster.GPU
	for _, g := range cands {
		if !g.Schedulable() || !s.fits(g.SumReq, g.SumLim, g.MemUsedMB, g.Capacity, g.MemCapMB, p) {
			continue
		}
		if g.HostsFunc(fn) && p.Role == profiler.RoleTraining {
			// DDP workers of one job never share a GPU: they would
			// compute in lockstep and simply halve each other.
			continue
		}
		score := s.score(g.SumReq, g.MemUsedMB, g.Capacity, g.MemCapMB, p)
		if g.HostsFunc(fn) {
			score += 0.5
		}
		// Lexicographic argmin of (score, kernel-cache coldness) with
		// scan order breaking full ties — identical to the plain argmin
		// unless cache affinity is on and a node cache is warm.
		cold := s.cacheCold(g, fn)
		if score < bestScore || (score == bestScore && cold < bestCold) {
			bestScore, bestCold, best = score, cold, g
		}
	}
	return best
}

// fits reports whether a GPU in the given state has room for profile p
// under Ω, γ and its memory: constraints (2)-(4) of Algorithm 1.
func (s *Dilu) fits(sumReq, sumLim, memUsed, capacity, memCap float64, p *profiler.Profile) bool {
	return sumReq+p.SMReq <= Omega*capacity+1e-9 &&
		sumLim+p.SMLim <= s.opts.Gamma*capacity+1e-9 &&
		memUsed+p.MemMB <= memCap
}

// score is the weighted fragmentation a GPU in the given state would be
// left with after hosting profile p (lower is a tighter fit), before the
// same-function penalty; −RC drops the memory term.
func (s *Dilu) score(sumReq, memUsed, capacity, memCap float64, p *profiler.Profile) float64 {
	score := Alpha * (1 - (sumReq+p.SMReq)/capacity)
	if !s.opts.DisableComplementary {
		score += Beta * (1 - (memUsed+p.MemMB)/memCap)
	}
	return score
}

// cacheCold is the kernel-cache tie-break key: 0 when the GPU's node
// holds compiled kernels for fn and cache affinity is enabled, 1
// otherwise — so warmer nodes win score ties. With affinity off (or no
// cache configured) every GPU keys 1 and the tie-break degenerates to
// the historical scan/position order.
func (s *Dilu) cacheCold(g *cluster.GPU, fn string) int {
	if s.opts.KernelCacheAffinity && g.Node != nil && g.Node.KernelsWarm(fn) {
		return 0
	}
	return 1
}

// selectOptGPUActive is selectOptGPU over the whole active set, served
// by the cluster's state-class table instead of a per-GPU scan:
// feasibility and score depend only on a class's key, so each distinct
// state is scored once.
//
// Equivalence with selectOptGPU(ActiveGPUs()): that scan takes the
// first (inventory-order) candidate achieving the minimum score, i.e.
// the lexicographic argmin of (score, cacheCold, Pos) — the cache-
// coldness key degenerates to a constant unless kernel-cache affinity
// is enabled. Class order is arbitrary, so the same argmin is computed
// explicitly, and a class's candidate is the member that ranks first
// among its equal scores: the lowest Pos, or with cache affinity the
// first warm member by Pos if it has one. GPUs hosting fn carry the
// same-function penalty (or are excluded, for training), so the class
// scan passes over them and they are scored one by one from the posting
// list.
func (s *Dilu) selectOptGPUActive(p *profiler.Profile, fn string) *cluster.GPU {
	bestScore := 1e18
	bestCold := 2
	bestPos := -1
	var best *cluster.GPU
	// beats orders candidates by (score, cacheCold, Pos), lexicographically.
	beats := func(score float64, cold, pos int) bool {
		return score < bestScore || (score == bestScore &&
			(cold < bestCold || (cold == bestCold && pos < bestPos)))
	}
	// The lowest coldness any member can key: with cache affinity off,
	// every GPU keys 1.
	coldFloor := 1
	if s.opts.KernelCacheAffinity {
		coldFloor = 0
	}
	// The posting index answers "does any GPU host fn" once, up front:
	// when it is empty (the common case for per-instance function names)
	// no class member needs the HostsFunc check below.
	hosts := s.clu.FuncGPUs(fn)
	hostsAny := len(hosts) > 0
	for _, cl := range s.clu.Classes() {
		if !s.fits(cl.SumReq, cl.SumLim, cl.MemUsedMB, cl.Capacity, cl.MemCapMB, p) {
			continue
		}
		score := s.score(cl.SumReq, cl.MemUsedMB, cl.Capacity, cl.MemCapMB, p)
		// (score, coldFloor, MinPos) bounds every member from below.
		if !beats(score, coldFloor, cl.MinPos()) {
			continue
		}
		g, cold := cl.Min(), 1
		if s.opts.KernelCacheAffinity {
			g, cold = s.warmMember(cl, fn, hostsAny)
		} else if hostsAny && g.HostsFunc(fn) {
			g = cl.MinWithout(fn)
		}
		if g == nil || !beats(score, cold, g.Pos()) {
			continue
		}
		bestScore, bestCold, bestPos, best = score, cold, g.Pos(), g
	}
	if p.Role == profiler.RoleTraining {
		// DDP workers of one job never share a GPU.
		return best
	}
	for _, g := range hosts {
		if !g.Schedulable() || !s.fits(g.SumReq, g.SumLim, g.MemUsedMB, g.Capacity, g.MemCapMB, p) {
			continue
		}
		score := s.score(g.SumReq, g.MemUsedMB, g.Capacity, g.MemCapMB, p) + 0.5
		if cold := s.cacheCold(g, fn); beats(score, cold, g.Pos()) {
			bestScore, bestCold, bestPos, best = score, cold, g.Pos(), g
		}
	}
	return best
}

// warmMember is a class's candidate under kernel-cache affinity: the
// first member by Pos whose node cache is warm for fn, else the first
// member by Pos, skipping members that host fn (when any GPU does). It
// returns the member and its coldness, or nil if every member hosts fn.
// Warmth is not indexed, so this visits every member.
func (s *Dilu) warmMember(cl *cluster.StateClass, fn string, hostsAny bool) (*cluster.GPU, int) {
	var best *cluster.GPU
	bestCold := 2
	for i := range cl.Len() {
		g := cl.Member(i)
		if hostsAny && g.HostsFunc(fn) {
			continue
		}
		if cold := s.cacheCold(g, fn); cold < bestCold || (cold == bestCold && g.Pos() < best.Pos()) {
			best, bestCold = g, cold
		}
	}
	return best, bestCold
}

// freshGPU starts a new GPU instance (line 16): the first inactive GPU
// whose class can host the profile (Capacity ≥ max(req/Ω, lim/γ) and
// the memory fits), served by the cluster's free index instead of an
// inventory scan. On a homogeneous fleet every fresh GPU fits, so the
// result is the first free GPU.
func (s *Dilu) freshGPU(p *profiler.Profile) *cluster.GPU {
	minCap := p.SMReq / Omega
	if lc := p.SMLim / s.opts.Gamma; lc > minCap {
		minCap = lc
	}
	return s.clu.FirstInactiveFit(minCap, p.MemMB)
}

// ---------------------------------------------------------------------------
// Baselines.

// Exclusive allocates one whole GPU per instance (pass-through), the
// common scheme of ElasticFlow/Hydrozoa-style systems.
type Exclusive struct {
	clu *cluster.Cluster
	seq int
}

// NewExclusive builds the baseline.
func NewExclusive(clu *cluster.Cluster) *Exclusive { return &Exclusive{clu: clu} }

// Name implements Scheduler.
func (s *Exclusive) Name() string { return "Exclusive" }

// Cluster implements Scheduler.
func (s *Exclusive) Cluster() *cluster.Cluster { return s.clu }

// Schedule implements Scheduler: every instance (and every stage of a
// multi-GPU instance) occupies a dedicated GPU with full quotas.
func (s *Exclusive) Schedule(req Request) ([]Decision, error) {
	if req.Instances <= 0 {
		req.Instances = 1
	}
	stages := req.GPUsPerInstance
	if stages <= 0 {
		stages = 1
	}
	var out []Decision
	for k := 0; k < req.Instances; k++ {
		s.seq++
		d := Decision{Instance: instanceID(req.Func, s.seq), Func: req.Func}
		for i := 0; i < stages; i++ {
			// Any capacity class serves an exclusive reservation; the
			// class's memory must still fit the (per-stage) model.
			g := s.clu.FirstInactiveFit(0, req.Profile.MemMB/float64(stages))
			if g == nil {
				d.Release()
				for _, prev := range out {
					prev.Release()
				}
				return nil, ErrNoCapacity
			}
			pl := &cluster.Placement{
				Instance: stageID(d.Instance, i), Func: req.Func,
				// The whole device is reserved: on a fractional-capacity
				// GPU that is Capacity, not 1.0, so normalized
				// utilization reads exactly 1.
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

// Static is the MPS-based scheduler shared by INFless+ and FaST-GS+:
// fixed quotas (limit or request flavor), best-fit by SM, no
// oversubscription (Σ quota ≤ 1, as MPS thread percentages cannot
// exceed the device), no workload affinity, and no multi-GPU sharding —
// LLM instances fall back to dedicated GPUs per stage.
type Static struct {
	label    string
	useLimit bool
	clu      *cluster.Cluster
	seq      int
}

// NewINFlessL builds INFless+ with limit quotas.
func NewINFlessL(clu *cluster.Cluster) *Static {
	return &Static{label: "INFless+-l", useLimit: true, clu: clu}
}

// NewINFlessR builds INFless+ with request quotas.
func NewINFlessR(clu *cluster.Cluster) *Static {
	return &Static{label: "INFless+-r", useLimit: false, clu: clu}
}

// NewFaSTGS builds FaST-GS+ (spatially identical to MPS-l).
func NewFaSTGS(clu *cluster.Cluster) *Static {
	return &Static{label: "FaST-GS+", useLimit: true, clu: clu}
}

// Name implements Scheduler.
func (s *Static) Name() string { return s.label }

// Cluster implements Scheduler.
func (s *Static) Cluster() *cluster.Cluster { return s.clu }

func (s *Static) quota(p profiler.Profile) float64 {
	if s.useLimit {
		return p.SMLim
	}
	return p.SMReq
}

// shardProfile divides a whole-instance profile over pipeline stages.
func shardProfile(p profiler.Profile, stages int) profiler.Profile {
	if stages <= 1 {
		return p
	}
	n := float64(stages)
	p.SMReq /= n
	p.SMLim /= n
	p.MemMB /= n
	return p
}

// Schedule implements Scheduler.
func (s *Static) Schedule(req Request) ([]Decision, error) {
	if req.Instances <= 0 {
		req.Instances = 1
	}
	stages := req.GPUsPerInstance
	if stages <= 0 {
		stages = 1
	}
	prof := shardProfile(req.Profile, stages)
	q := s.quota(prof)
	var out []Decision
	fail := func(err error) ([]Decision, error) {
		for _, prev := range out {
			prev.Release()
		}
		return nil, err
	}
	for k := 0; k < req.Instances; k++ {
		s.seq++
		d := Decision{Instance: instanceID(req.Func, s.seq), Func: req.Func}
		for i := 0; i < stages; i++ {
			g := s.pick(q, prof.MemMB, stages > 1)
			if g == nil {
				d.Release()
				return fail(ErrNoCapacity)
			}
			pl := &cluster.Placement{
				Instance: stageID(d.Instance, i), Func: req.Func,
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

// pick is the Static best-fit: the feasible active GPU with the least
// free SM share, ties toward inventory order — the lexicographic argmin
// of (free, Pos). Free share and feasibility depend only on a GPU's
// state, so the scan visits state classes and a class's candidate is
// its lowest-position member. MPS thread percentages cannot exceed the
// device, so feasibility is ΣReq + q ≤ Capacity per GPU and the free
// share is 1 − util. On a homogeneous fleet Capacity is 1.0 and util ≡
// ΣReq bit-for-bit, so selection is unchanged from the pre-capacity
// code.
func (s *Static) pick(q, memMB float64, wholeGPU bool) *cluster.GPU {
	if wholeGPU {
		return s.clu.FirstInactiveFit(q, memMB)
	}
	var best *cluster.StateClass
	bestFree := 2.0
	bestPos := -1
	for _, cl := range s.clu.Classes() {
		if cl.SumReq+q > cl.Capacity+1e-9 || cl.MemUsedMB+memMB > cl.MemCapMB {
			continue
		}
		free := 1 - cl.Util()
		if pos := cl.MinPos(); free < bestFree || (free == bestFree && pos < bestPos) {
			bestFree, bestPos, best = free, pos, cl
		}
	}
	if best != nil {
		return best.Min()
	}
	return s.clu.FirstInactiveFit(q, memMB)
}
