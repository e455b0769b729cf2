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

// Options are the Dilu scheduler hyper-parameters.
type Options struct {
	// Omega bounds Σ request quotas per GPU (Ω, default 1.0).
	Omega float64
	// Gamma bounds Σ limit quotas per GPU (γ, default 1.5 — the
	// oversubscription coefficient of Figure 18(a)).
	Gamma float64
	// Alpha and Beta weight the SM and memory terms of the
	// fragmentation score (default 0.5 / 0.5).
	Alpha, Beta float64
	// DisableAffinity turns off Principle-1 (the -WA ablation).
	DisableAffinity bool
	// DisableComplementary turns off Principle-2 (the -RC ablation):
	// memory is dropped from the score and multi-GPU LLM deployment
	// falls back to whole fresh GPUs.
	DisableComplementary bool
	// KernelCacheAffinity breaks fragmentation-score ties toward GPUs
	// whose node's kernel cache is warm for the function, so a relaunch
	// lands where its JIT artifacts already live and the cold start
	// shrinks. Ties only — the score itself is untouched, and with the
	// staged cold-start model disabled every node is cold, so the
	// refinement is inert and selection stays bit-identical.
	KernelCacheAffinity bool
}

func (o Options) withDefaults() Options {
	if o.Omega <= 0 {
		o.Omega = 1.0
	}
	if o.Gamma <= 0 {
		o.Gamma = 1.5
	}
	if o.Alpha == 0 && o.Beta == 0 {
		o.Alpha, o.Beta = 0.5, 0.5
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
	p := req.Profile
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
// Candidates come from the cluster's incremental indexes rather than a
// full inventory scan: every feasible active GPU, merged (in inventory
// order) with the `stages` earliest inactive GPUs. Inactive GPUs are
// interchangeable — identical free memory, the worst-fit maximum — and
// the ranking loop breaks free-memory ties toward earlier list positions,
// so capping them at `stages` provably selects the same GPUs a scan of
// all of them would; the feasibility count still reflects every inactive
// GPU.
func (s *Dilu) placeMultiGPU(req Request, stages int) (Decision, error) {
	p := shardProfile(req.Profile, stages)
	if s.opts.DisableComplementary {
		return s.placeExclusiveStages(req, stages)
	}
	feasible := func(g *cluster.GPU) bool {
		return g.Schedulable() &&
			g.SumReq+p.SMReq <= s.opts.Omega*g.Capacity+1e-9 &&
			g.SumLim+p.SMLim <= s.opts.Gamma*g.Capacity+1e-9 &&
			g.MemUsedMB+p.MemMB <= g.MemCapMB
	}
	cands := s.candScratch[:0]
	if s.clu.Heterogeneous() {
		// Mixed fleets void the "inactive GPUs are interchangeable"
		// argument below (classes differ in memory and capacity, so
		// feasibility and worst-fit rank vary across idle GPUs): fall
		// back to a full inventory scan. Multi-GPU (LLM) placements are
		// the rare case, and heterogeneous drivers run at cluster sizes
		// where an O(inventory) scan per LLM instance is acceptable.
		for _, g := range s.clu.GPUs() {
			if feasible(g) {
				cands = append(cands, multiCand{g, g.MemCapMB - g.MemUsedMB})
			}
		}
		s.candScratch = cands
		if len(cands) < stages {
			return Decision{}, ErrNoCapacity
		}
	} else {
		s.inactScratch = s.clu.AppendInactive(s.inactScratch[:0], stages)
		inactives := s.inactScratch
		feasibleCount := 0
		// Merge actives and the capped inactives in inventory order so the
		// candidate list is a (never-selected-elements-removed) copy of the
		// full-scan list.
		ii := 0
		for _, g := range s.clu.ActiveGPUs() {
			for ii < len(inactives) && inactives[ii].Pos() < g.Pos() {
				if feasible(inactives[ii]) {
					cands = append(cands, multiCand{inactives[ii], inactives[ii].MemCapMB - inactives[ii].MemUsedMB})
				}
				ii++
			}
			if feasible(g) {
				cands = append(cands, multiCand{g, g.MemCapMB - g.MemUsedMB})
				feasibleCount++
			}
		}
		for ; ii < len(inactives); ii++ {
			if feasible(inactives[ii]) {
				cands = append(cands, multiCand{inactives[ii], inactives[ii].MemCapMB - inactives[ii].MemUsedMB})
			}
		}
		s.candScratch = cands
		// Feasibility counts every schedulable inactive GPU, not just the
		// capped sample: on a single-class fleet they are interchangeable,
		// so one check covers all of them.
		if n := s.clu.SchedulableInactive(); n > 0 && len(inactives) > 0 && feasible(inactives[0]) {
			feasibleCount += n
		}
		if feasibleCount < stages {
			return Decision{}, ErrNoCapacity
		}
	}
	// Worst fit: stable selection of the GPUs with the largest
	// normalized free-memory share (equal-capacity GPUs compare raw free
	// MB, so homogeneous fleets rank exactly as before normalization).
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
		g := s.freshGPU(prof)
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
		for f := range g.FuncCounts() {
			if f != fn {
				partners[f] = true
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
func (s *Dilu) selectOptGPU(cands []*cluster.GPU, p profiler.Profile, fn string) *cluster.GPU {
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
		if newReq > s.opts.Omega*g.Capacity+1e-9 || newLim > s.opts.Gamma*g.Capacity+1e-9 || newMem > g.MemCapMB {
			continue
		}
		if g.HostsFunc(fn) && p.Role == profiler.RoleTraining {
			// DDP workers of one job never share a GPU: they would
			// compute in lockstep and simply halve each other.
			continue
		}
		score := s.opts.Alpha * (1 - newReq/g.Capacity)
		if !s.opts.DisableComplementary {
			score += s.opts.Beta * (1 - newMem/g.MemCapMB)
		}
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
// by the cluster's occupancy index instead of a slice scan. Buckets are
// walked from most- to least-occupied; a bucket whose ΣReq upper bound
// already lower-bounds every remaining score above the best found so
// far ends the walk, so the scan touches only the occupancy bands that
// could still win.
//
// Equivalence with selectOptGPU(ActiveGPUs()): that scan takes the
// first (inventory-order) candidate achieving the minimum score, i.e.
// the lexicographic argmin of (score, cacheCold, Pos) — the cache-
// coldness key degenerates to a constant unless kernel-cache affinity
// is enabled. Bucket order is arbitrary, so the same argmin is computed
// explicitly; and since the SM term alone satisfies score ≥ α·(1 −
// (util + req/cap)) ≥ α·(1 − (ub + req/min-cap)) — the memory term and
// the same-function penalty are non-negative — a bucket bound strictly
// above bestScore proves no remaining candidate can beat *or tie* it
// (the break fires only on strict >, so equal-score candidates that
// could win the coldness/position tie-break are still scanned).
func (s *Dilu) selectOptGPUActive(p profiler.Profile, fn string) *cluster.GPU {
	// Buckets whose normalized-utilization lower bound already breaks Ω
	// for even the largest-capacity GPU hold no feasible candidate;
	// start below them. (On a homogeneous fleet MaxCapacity is 1.0 and
	// x/1.0 ≡ x, so the bound is bit-identical to the pre-capacity one.)
	headroom := s.opts.Omega + 1e-9 - p.SMReq/s.clu.MaxCapacity()
	if headroom < 0 {
		return nil
	}
	start := cluster.OccupancyBucketOf(headroom)
	bestScore := 1e18
	bestCold := 2
	bestPos := -1
	var best *cluster.GPU
	// The posting index answers "does any GPU host fn" once, up front:
	// when it is empty (the common case for per-instance function names)
	// both HostsFunc checks below are statically false, saving a string
	// map lookup per candidate — the dominant cost of the 32k-instance
	// hyperscale batch profile.
	hostsAny := len(s.clu.FuncGPUs(fn)) > 0
	for b := start; b >= 0; b-- {
		// Everything in buckets ≤ b has utilization < (b+1)/Buckets (the
		// top bucket is clamped, but the walk starts at most there and
		// its bound is checked after scanning it). The score lower bound
		// divides the request by the smallest capacity in the fleet —
		// the largest possible normalized increment.
		if best != nil {
			ub := float64(b+1) / cluster.OccupancyBuckets
			if s.opts.Alpha*(1-(ub+p.SMReq/s.clu.MinCapacity())) > bestScore {
				break
			}
		}
		for _, g := range s.clu.OccupancyBucket(b) {
			if !g.Schedulable() {
				continue
			}
			newReq := g.SumReq + p.SMReq
			newLim := g.SumLim + p.SMLim
			newMem := g.MemUsedMB + p.MemMB
			if newReq > s.opts.Omega*g.Capacity+1e-9 || newLim > s.opts.Gamma*g.Capacity+1e-9 || newMem > g.MemCapMB {
				continue
			}
			hosts := hostsAny && g.HostsFunc(fn)
			if hosts && p.Role == profiler.RoleTraining {
				continue
			}
			score := s.opts.Alpha * (1 - newReq/g.Capacity)
			if !s.opts.DisableComplementary {
				score += s.opts.Beta * (1 - newMem/g.MemCapMB)
			}
			if hosts {
				score += 0.5
			}
			cold := s.cacheCold(g, fn)
			if score < bestScore || (score == bestScore &&
				(cold < bestCold || (cold == bestCold && g.Pos() < bestPos))) {
				bestScore, bestCold, bestPos, best = score, cold, g.Pos(), g
			}
		}
	}
	return best
}

// freshGPU starts a new GPU instance (line 16): the first inactive GPU
// whose class can host the profile (Capacity ≥ max(req/Ω, lim/γ) and
// the memory fits), served by the cluster's free index instead of an
// inventory scan. On a homogeneous fleet every fresh GPU fits, so the
// result is exactly the old FirstInactive.
func (s *Dilu) freshGPU(p profiler.Profile) *cluster.GPU {
	minCap := p.SMReq / s.opts.Omega
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
// free SM share, ties toward inventory order. It walks the occupancy
// index from the most-occupied bucket that still has Σreq ≤ 1−q
// headroom downward; within a bucket (unordered) the inventory-scan tie
// order is reproduced by taking the lexicographic argmin of (free, Pos).
//
// Stopping rule: a lower bucket has strictly smaller ΣReq, so by
// monotonicity of exact rounding its free share 1−ΣReq is ≥ the best's
// — it can tie but never win. Ties across buckets are real: 1−x
// collapses ΣReq values one ulp apart onto the same free (e.g. ΣReq
// 0.25 and 0.25−2⁻⁵⁴ both yield free 0.75, one bucket apart), and the
// reference scan resolves such ties toward the earlier GPU. The
// collapse interval is ~1 ulp of free — vastly narrower than a 1/64
// bucket — so scanning exactly one bucket below the first hit covers
// every possible tie. (The differential replay in
// experiments/sched_equiv_test.go caught this on the §5.5 mix.)
// MPS thread percentages cannot exceed the device, so feasibility is
// ΣReq + q ≤ Capacity per GPU and the free share is 1 − util. On a
// homogeneous fleet Capacity is 1.0 and util ≡ ΣReq bit-for-bit, so
// selection is unchanged from the pre-capacity code.
func (s *Static) pick(q, memMB float64, wholeGPU bool) *cluster.GPU {
	if wholeGPU {
		return s.clu.FirstInactiveFit(q, memMB)
	}
	headroom := 1 + 1e-9 - q/s.clu.MaxCapacity()
	if headroom >= 0 {
		var best *cluster.GPU
		bestFree := 2.0
		bestPos := -1
		stopBelow := -1
		for b := cluster.OccupancyBucketOf(headroom); b >= 0; b-- {
			if best != nil && b < stopBelow {
				break
			}
			for _, g := range s.clu.OccupancyBucket(b) {
				if !g.Schedulable() {
					continue
				}
				if g.SumReq+q > g.Capacity+1e-9 || g.MemUsedMB+memMB > g.MemCapMB {
					continue
				}
				free := 1 - g.Util()
				if free < bestFree || (free == bestFree && g.Pos() < bestPos) {
					bestFree, bestPos, best = free, g.Pos(), g
				}
			}
			if best != nil && stopBelow == -1 {
				stopBelow = b - 1 // one more bucket: rounding-collapse ties
			}
		}
		if best != nil {
			return best
		}
	}
	return s.clu.FirstInactiveFit(q, memMB)
}
