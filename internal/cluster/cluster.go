// Package cluster maintains the node/GPU inventory and the ⟨request,
// limit⟩/memory bookkeeping that Dilu's scheduler (Algorithm 1) operates
// on, along with the fragmentation and occupancy metrics reported in
// Figures 2 and 17.
//
// A GPU entry can optionally carry a live gpu.Device for kernel-level
// experiments; placement-only simulations (the 1,000-node run of §5.5)
// leave it nil and work purely on quota accounting.
//
// The inventory keeps incremental indexes so the scheduler hot path does
// no O(cluster) work: the active-GPU set and the free set (inactive and
// schedulable GPUs, the fresh-GPU candidates) are position bitsets (O(1)
// updates, walked in inventory order). Two further indexes keep
// placement cost off the fleet size: a function→hosting-GPUs posting
// index (FuncGPUs, kept in inventory order) lets workload-affinity
// lookups enumerate only the GPUs that actually host a function, and the
// state-class table (Classes) groups every healthy active GPU with the
// others of exactly the same state (ΣReq, ΣLim, memory use, device
// generation) in one StateClass, so a placement scan scores each
// distinct state once instead of each GPU. The class count follows the
// combinations of profiles a GPU can hold, not the number of GPUs, so
// the placement walks scan the whole table. Place, Remove and health
// changes refile a GPU at once; KV-cache growth and release only mark it
// dirty, and the next Classes call refiles the dirty GPUs.
package cluster

import (
	"fmt"
	"iter"
	"math"
	"math/bits"
	"slices"

	"dilu/internal/gpu"
)

// Placement records one instance's resource reservation on a GPU.
type Placement struct {
	Instance string
	Func     string
	Req      float64 // SM request quota as allocated by the scheduler
	Lim      float64 // SM limit quota
	MemMB    float64
	// TrueReq is the profiled request quota — the instance's actual
	// compute need regardless of how generously the scheduler allocated
	// (Exclusive allocates 1.0 for a 0.3-need instance). Fragmentation
	// accounting uses it; zero falls back to Req.
	TrueReq float64
	// KVMB is the KV-cache slice of MemMB, maintained by ReserveKV/
	// ReleaseKV. Remove reconciles it so an eviction racing a token-level
	// release (node failure before instance abort) never double-counts.
	KVMB float64
}

// trueReq returns the actual compute need of the placement.
func (p *Placement) trueReq() float64 {
	if p.TrueReq > 0 {
		return p.TrueReq
	}
	return p.Req
}

// Health is a GPU's lifecycle state. Healthy GPUs accept placements;
// Draining GPUs keep their existing placements but take no new ones
// (rolling upgrades); Failed GPUs hold nothing — FailNode evicts their
// placements for the caller to reschedule. Quarantined GPUs are the
// gray-failure analogue of Draining: ejected from the schedulable
// indexes by the health monitor on observed slowdown/error outliers,
// existing placements migrated make-before-break, readmitted when a
// probe comes back clean.
type Health uint8

const (
	Healthy Health = iota
	Draining
	Failed
	Quarantined
)

func (h Health) String() string {
	switch h {
	case Draining:
		return "draining"
	case Failed:
		return "failed"
	case Quarantined:
		return "quarantined"
	}
	return "healthy"
}

// GPUClass describes one device generation of a heterogeneous fleet.
// Capacity is relative compute throughput (1.0 = the baseline device the
// profiler's SM quotas are expressed against); a 0.5-capacity GPU is
// full at ΣReq 0.5. Quota feasibility and the occupancy index work on
// normalized utilization ΣReq/Capacity so mixed fleets share one scale.
type GPUClass struct {
	Name     string
	Capacity float64 // relative compute capacity; <=0 defaults to 1.0
	MemCapMB float64 // per-class memory; <=0 defaults to A100-40GB
	Weight   float64 // share of nodes assigned to the class; <=0 means 1
}

// GPU is one schedulable device slot.
type GPU struct {
	ID    string
	Node  *Node
	Index int
	Dev   *gpu.Device // nil in placement-only simulations

	// Class and Capacity identify the GPU's device generation in a
	// heterogeneous fleet; Capacity is 1.0 on homogeneous clusters.
	Class    string
	Capacity float64

	MemCapMB   float64
	SumReq     float64
	SumLim     float64
	SumTrueReq float64
	MemUsedMB  float64
	// KVUsedMB is the slice of MemUsedMB currently held by KV caches —
	// variable-size reservations grown and shrunk token-by-token via
	// ReserveKV/ReleaseKV, always contained in some placement's MemMB.
	KVUsedMB   float64
	Placements []*Placement

	health Health
	// dirty is set while a KV-cache change awaits refiling (see
	// Cluster.dirty); it sits beside health to keep the struct small.
	dirty    bool
	classIdx int

	// clu and pos link the GPU back to its cluster's indexes; nil/0 for
	// GPUs constructed outside New (index maintenance is then skipped).
	clu *Cluster
	pos int
	// cls is the state class the GPU is filed in (nil while inactive or
	// unhealthy) and slot its index in the class's member heap.
	cls  *StateClass
	slot int
}

// Active reports whether any instance is placed on the GPU.
func (g *GPU) Active() bool { return len(g.Placements) > 0 }

// Health returns the GPU's lifecycle state.
func (g *GPU) Health() Health { return g.health }

// Schedulable reports whether the GPU accepts new placements: healthy,
// neither draining nor failed.
func (g *GPU) Schedulable() bool { return g.health == Healthy }

// Util returns the GPU's normalized compute utilization ΣReq/Capacity —
// the occupancy measure feasibility works on. On a capacity-1.0 GPU it
// equals ΣReq exactly (x/1.0 is bit-identical to x), so homogeneous
// fleets behave as before normalization.
func (g *GPU) Util() float64 {
	if g.Capacity > 0 {
		return g.SumReq / g.Capacity
	}
	return g.SumReq
}

// Pos returns the GPU's position in the cluster inventory (the stable
// scan order of Cluster.GPUs); zero for GPUs built outside New.
func (g *GPU) Pos() int { return g.pos }

// Place reserves the placement's quotas on the GPU. Feasibility is the
// scheduler's concern; Place only refuses memory overflow — mirroring
// constraint (4) — and failed devices, which physically cannot host.
func (g *GPU) Place(p *Placement) error {
	if g.health == Failed {
		return fmt.Errorf("cluster: gpu %s has failed", g.ID)
	}
	if g.MemUsedMB+p.MemMB > g.MemCapMB {
		return fmt.Errorf("cluster: gpu %s memory overflow (%.0f+%.0f > %.0f MB)",
			g.ID, g.MemUsedMB, p.MemMB, g.MemCapMB)
	}
	g.SumReq += p.Req
	g.SumLim += p.Lim
	g.SumTrueReq += p.trueReq()
	g.MemUsedMB += p.MemMB
	first := !g.HostsFunc(p.Func)
	g.Placements = append(g.Placements, p)
	if g.clu != nil {
		if len(g.Placements) == 1 {
			g.clu.noteActivated(g)
		}
		if first {
			g.clu.notePostingAdd(p.Func, g)
		}
		g.clu.refile(g)
	}
	return nil
}

// Remove releases a placement's reservation.
func (g *GPU) Remove(p *Placement) {
	for i, q := range g.Placements {
		if q == p {
			g.Placements = append(g.Placements[:i], g.Placements[i+1:]...)
			g.SumReq -= p.Req
			g.SumLim -= p.Lim
			g.SumTrueReq -= p.trueReq()
			g.MemUsedMB -= p.MemMB
			// The KV charge leaves inside p.MemMB; reconcile the KV view
			// and zero the placement's slice so a late ReleaseKV no-ops.
			g.KVUsedMB -= p.KVMB
			p.KVMB = 0
			if g.clu != nil {
				if !g.HostsFunc(p.Func) {
					g.clu.notePostingRemove(p.Func, g)
				}
				if len(g.Placements) == 0 {
					g.clu.noteDeactivated(g)
				}
				g.clu.refile(g)
			}
			return
		}
	}
}

// ReserveKV grows placement p's reservation by mb of KV-cache memory.
// It refuses (false) when the GPU lacks headroom — the cache-full signal
// that forces token-level serving to preempt or shed. On success the
// charge lands in p.MemMB, g.MemUsedMB, and g.KVUsedMB together, so the
// quota-conservation view (Σ placement MemMB == MemUsedMB) is preserved.
// The growth changes the GPU's state class, so the GPU is marked for
// refiling at the next Classes call, as in ReleaseKV.
func (g *GPU) ReserveKV(p *Placement, mb float64) bool {
	if mb <= 0 {
		return true
	}
	if g.MemUsedMB+mb > g.MemCapMB {
		return false
	}
	p.MemMB += mb
	p.KVMB += mb
	g.MemUsedMB += mb
	g.KVUsedMB += mb
	if g.clu != nil {
		g.clu.markDirty(g)
	}
	return true
}

// ReleaseKV returns mb of KV-cache memory from placement p (sequence
// completion, preemption, or instance teardown before Remove). The
// release clamps to the placement's live KV charge: a placement already
// evicted by Remove (node failure racing an instance abort) has nothing
// left to release here.
func (g *GPU) ReleaseKV(p *Placement, mb float64) {
	if mb > p.KVMB {
		mb = p.KVMB
	}
	if mb <= 0 {
		return
	}
	p.MemMB -= mb
	p.KVMB -= mb
	g.MemUsedMB -= mb
	g.KVUsedMB -= mb
	if g.clu != nil {
		g.clu.markDirty(g)
	}
}

// HostsFunc reports whether any placement belongs to the function: a
// scan of the GPU's few placements.
func (g *GPU) HostsFunc(fn string) bool {
	for _, p := range g.Placements {
		if p.Func == fn {
			return true
		}
	}
	return false
}

// Funcs returns the set of function names placed on the GPU (a fresh
// map; hot paths read Placements or HostsFunc instead).
func (g *GPU) Funcs() map[string]bool {
	out := make(map[string]bool, len(g.Placements))
	for _, p := range g.Placements {
		out[p.Func] = true
	}
	return out
}

// Node groups the GPUs of one server.
type Node struct {
	ID   string
	GPUs []*GPU

	// Kernels is the node-local kernel/JIT artifact cache: the serving
	// plane gives every node one; nil on a bare cluster. Together
	// with the FuncGPUs posting index (which tracks *current* hosting)
	// it forms the cache-affinity signal schedulers consult — the cache
	// remembers functions the node served *before*, surviving teardown.
	Kernels *gpu.KernelCache
}

// KernelsWarm reports whether the node's kernel cache (if any) holds
// compiled kernels for the function. Safe to call on a bare cluster: a
// nil cache is never warm, so affinity tie-breaking is inert there.
func (n *Node) KernelsWarm(fn string) bool {
	return n.Kernels != nil && n.Kernels.Warm(fn)
}

// Cluster is the full inventory.
type Cluster struct {
	Nodes []*Node
	gpus  []*GPU

	// activeBits has bit pos set iff the GPU at inventory position pos
	// holds a placement, and activeN counts the set bits. Walking the
	// words low to high yields inventory order; an update is one bit.
	activeBits []uint64
	activeN    int
	// free has bit pos set iff the GPU at pos is inactive and
	// schedulable — the fresh GPUs Algorithm 1 may open. Activation,
	// deactivation and health changes keep it (see syncFree).
	free []uint64

	// posting maps a function name to the GPUs currently hosting at
	// least one of its placements, in inventory order — the posting list
	// workload-affinity lookups enumerate instead of scanning all active
	// GPUs. Lists are maintained eagerly when a GPU's first placement of
	// a function arrives or its last leaves, and a function's key is
	// deleted when its last placement leaves so the map tracks live
	// functions only.
	posting map[string][]*GPU
	// table lists the live state classes (see Classes): every healthy
	// active GPU sits in exactly one. A class's slot is its index here,
	// and an emptied class leaves by swap-remove, so order is not
	// specified. byKey maps each live class's key to the class.
	table []*StateClass
	byKey map[classKey]*StateClass
	// freeClasses recycles emptied classes (their member heaps keep
	// their capacity), so GPUs moving between states allocate nothing
	// once the pool has grown to the peak class count.
	freeClasses []*StateClass
	// dirty lists the positions of GPUs whose memory use changed by a
	// KV-cache charge since they were last filed. Token-level serving
	// charges KV on every decode step, far more often than the class
	// table is read, so the charge only sets GPU.dirty and appends here;
	// the next Classes call refiles the list. A GPU refiled earlier (by
	// Place, Remove or a health change) has its flag cleared and is
	// skipped.
	dirty []int32

	// classes records the fleet's device generations (one synthetic
	// entry for homogeneous clusters).
	classes []GPUClass

	// occupiedCap sums the capacities of active GPUs (capacity-weighted
	// occupancy, the cost measure on mixed fleets).
	occupiedCap float64
}

// Config controls cluster construction.
type Config struct {
	Nodes       int
	GPUsPerNode int
	WithDevices bool // allocate live gpu.Devices for kernel-level runs
	// Classes makes the fleet heterogeneous: nodes are assigned to
	// classes by a deterministic weighted interleave (largest-deficit
	// round-robin), so device generations mix through the inventory the
	// way racks mix in a real fleet — position-ordered policies like
	// first-inactive see both generations early instead of an all-big
	// prefix. A node carries one GPU generation. Empty means one
	// uniform capacity-1.0 class — the pre-heterogeneity behavior.
	Classes []GPUClass
}

// classAssign returns each node's class index under largest-deficit
// weighted round-robin: node n goes to the class whose assigned share
// lags its weight the most (ties toward the earlier class). A 70/30
// split yields B B S B B B S B B S …, deterministically.
func classAssign(classes []GPUClass, nodes int) []int {
	total := 0.0
	weights := make([]float64, len(classes))
	for i, cl := range classes {
		w := cl.Weight
		if w <= 0 {
			w = 1
		}
		weights[i] = w
		total += w
	}
	out := make([]int, nodes)
	assigned := make([]float64, len(classes))
	for n := 0; n < nodes; n++ {
		best, bestDeficit := 0, -1.0
		for i, w := range weights {
			deficit := w/total*float64(n+1) - assigned[i]
			if deficit > bestDeficit {
				best, bestDeficit = i, deficit
			}
		}
		assigned[best]++
		out[n] = best
	}
	return out
}

// New builds a cluster.
func New(cfg Config) *Cluster {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.GPUsPerNode <= 0 {
		cfg.GPUsPerNode = 4
	}
	classes := cfg.Classes
	if len(classes) == 0 {
		classes = []GPUClass{{Name: "uniform", Capacity: 1, Weight: 1}}
	}
	classes = slices.Clone(classes)
	for i := range classes {
		if classes[i].Capacity <= 0 {
			classes[i].Capacity = 1
		}
		if classes[i].MemCapMB <= 0 {
			classes[i].MemCapMB = gpu.DefaultMemoryMB
		}
		if classes[i].Name == "" {
			classes[i].Name = fmt.Sprintf("class-%d", i)
		}
	}
	c := &Cluster{
		posting: make(map[string][]*GPU),
		byKey:   make(map[classKey]*StateClass),
		classes: classes,
	}
	assign := classAssign(classes, cfg.Nodes)
	for n := 0; n < cfg.Nodes; n++ {
		ci := assign[n]
		cl := classes[ci]
		node := &Node{ID: fmt.Sprintf("node-%d", n)}
		for i := 0; i < cfg.GPUsPerNode; i++ {
			g := &GPU{
				ID:       fmt.Sprintf("node-%d/gpu-%d", n, i),
				Node:     node,
				Index:    i,
				Class:    cl.Name,
				Capacity: cl.Capacity,
				MemCapMB: cl.MemCapMB,
				clu:      c,
				pos:      len(c.gpus),
				classIdx: ci,
			}
			if cfg.WithDevices {
				g.Dev = gpu.NewDevice(g.ID)
				g.Dev.MemoryMB = cl.MemCapMB
			}
			node.GPUs = append(node.GPUs, g)
			c.gpus = append(c.gpus, g)
		}
		c.Nodes = append(c.Nodes, node)
	}
	c.activeBits = make([]uint64, (len(c.gpus)+63)/64)
	c.free = make([]uint64, len(c.activeBits))
	for _, g := range c.gpus {
		c.syncFree(g) // every GPU starts inactive and healthy
	}
	return c
}

// noteActivated adds g to the active set and takes it out of the free
// set.
func (c *Cluster) noteActivated(g *GPU) {
	c.activeBits[g.pos>>6] |= 1 << (g.pos & 63)
	c.activeN++
	c.occupiedCap += g.Capacity
	c.syncFree(g)
}

// noteDeactivated removes g from the active set and, when schedulable,
// returns it to the free set.
func (c *Cluster) noteDeactivated(g *GPU) {
	c.activeBits[g.pos>>6] &^= 1 << (g.pos & 63)
	c.activeN--
	c.occupiedCap -= g.Capacity
	c.syncFree(g)
}

// syncFree sets g's free bit to !Active() && Schedulable().
func (c *Cluster) syncFree(g *GPU) {
	if !g.Active() && g.Schedulable() {
		c.free[g.pos>>6] |= 1 << (g.pos & 63)
	} else {
		c.free[g.pos>>6] &^= 1 << (g.pos & 63)
	}
}

// walk yields the GPUs whose bits are set in words, in inventory order.
// The body must not change the set it walks.
func (c *Cluster) walk(words []uint64) iter.Seq[*GPU] {
	return func(yield func(*GPU) bool) {
		for w, word := range words {
			for ; word != 0; word &= word - 1 {
				if !yield(c.gpus[w<<6|bits.TrailingZeros64(word)]) {
					return
				}
			}
		}
	}
}

// GPUs returns every GPU in the cluster, in stable order.
func (c *Cluster) GPUs() []*GPU { return c.gpus }

// ActiveGPUs yields the GPUs hosting at least one placement (the 𝐺_act
// set of Algorithm 1), in inventory order. The iteration reads the live
// index: the loop body must not place or remove.
func (c *Cluster) ActiveGPUs() iter.Seq[*GPU] { return c.walk(c.activeBits) }

// FirstInactiveFit returns the earliest schedulable inactive GPU whose
// class fits the need — Capacity ≥ minCap (within quota epsilon) and
// MemCapMB ≥ memMB — or nil. FirstInactiveFit(0, 0) is the first free
// GPU; on a homogeneous fleet every free GPU fits any profile that fits
// a GPU at all.
func (c *Cluster) FirstInactiveFit(minCap, memMB float64) *GPU {
	for g := range c.walk(c.free) {
		if minCap <= g.Capacity+1e-9 && memMB <= g.MemCapMB {
			return g
		}
	}
	return nil
}

// AppendInactiveFit appends to dst the first k schedulable inactive
// GPUs, in inventory order, for which fit reports true, and returns the
// extended slice; on a homogeneous fleet fit either accepts every idle
// GPU or none.
func (c *Cluster) AppendInactiveFit(dst []*GPU, k int, fit func(*GPU) bool) []*GPU {
	if k <= 0 {
		return dst
	}
	for g := range c.walk(c.free) {
		if fit(g) {
			dst = append(dst, g)
			if k--; k == 0 {
				break
			}
		}
	}
	return dst
}

// OccupiedCount returns the number of active GPUs — the scheduling
// objective Σ g_i of Equation (1).
func (c *Cluster) OccupiedCount() int { return c.activeN }

// OccupiedCapacity returns the summed compute capacity of active GPUs —
// the capacity-weighted occupancy that prices mixed fleets (a 0.5-
// capacity GPU costs half a baseline device). Equals OccupiedCount on
// homogeneous clusters.
func (c *Cluster) OccupiedCapacity() float64 { return c.occupiedCap }

// ---------------------------------------------------------------------------
// Node lifecycle: failures, drains, joins.

// FailNode takes a node out of service abruptly: every placement on its
// GPUs is evicted through the normal Remove path (so the active set,
// free set, posting index and state classes stay consistent) and
// returned to the caller as rescheduling work. The GPUs stop being
// offered by every index until JoinNode restores them.
func (c *Cluster) FailNode(n *Node) []*Placement {
	var evicted []*Placement
	for _, g := range n.GPUs {
		for len(g.Placements) > 0 {
			p := g.Placements[len(g.Placements)-1]
			g.Remove(p)
			evicted = append(evicted, p)
		}
		c.setHealth(g, Failed)
	}
	return evicted
}

// DrainNode stops new placements on a node for a planned removal.
// Existing placements stay until their owners release (or migrate) them;
// the node's GPUs are withheld from the fresh-GPU indexes immediately.
func (c *Cluster) DrainNode(n *Node) {
	for _, g := range n.GPUs {
		c.setHealth(g, Draining)
	}
}

// JoinNode returns a failed or drained node to service: its idle GPUs
// re-enter the free set and new placements are accepted again.
func (c *Cluster) JoinNode(n *Node) {
	for _, g := range n.GPUs {
		c.setHealth(g, Healthy)
	}
}

// QuarantineGPU ejects one GPU from the schedulable indexes on a
// health-monitor verdict. Like DrainNode the existing placements stay
// for make-before-break migration; unlike DrainNode the unit is a
// single device — gray failures are per-GPU, not per-node.
func (c *Cluster) QuarantineGPU(g *GPU) {
	c.setHealth(g, Quarantined)
}

// ReadmitGPU returns a quarantined GPU to service after a clean probe.
// It refuses to touch Draining/Failed GPUs — those belong to the churn
// lifecycle (JoinNode), not the health monitor.
func (c *Cluster) ReadmitGPU(g *GPU) {
	if g.health == Quarantined {
		c.setHealth(g, Healthy)
	}
}

// setHealth transitions one GPU's lifecycle state, keeping the free set
// and the state classes (which file healthy GPUs only) consistent.
// Placement eviction is the caller's job (FailNode evicts before
// marking).
func (c *Cluster) setHealth(g *GPU, h Health) {
	if g.health == h {
		return
	}
	g.health = h
	c.syncFree(g)
	c.refile(g)
}

// ---------------------------------------------------------------------------
// Function posting index.

// FuncGPUs returns the GPUs hosting at least one placement of fn, in
// inventory order. The slice is the cluster's live posting list —
// callers must treat it as read-only and must not hold it across
// placement changes. Nil when no GPU hosts the function.
func (c *Cluster) FuncGPUs(fn string) []*GPU { return c.posting[fn] }

// postingIndex returns the insertion point of pos in fn's posting list
// (lower bound by inventory position).
func postingIndex(list []*GPU, pos int) int {
	lo, _ := slices.BinarySearchFunc(list, pos, func(g *GPU, p int) int { return g.pos - p })
	return lo
}

// notePostingAdd records that g now hosts fn (its first placement of fn
// arrived), keeping the posting list in inventory order.
func (c *Cluster) notePostingAdd(fn string, g *GPU) {
	list := c.posting[fn]
	c.posting[fn] = slices.Insert(list, postingIndex(list, g.pos), g)
}

// notePostingRemove records that g no longer hosts fn (its last
// placement of fn left). The
// key is deleted when the list empties so the map never accumulates
// dead function names (§5.5-style mixes use per-instance names).
func (c *Cluster) notePostingRemove(fn string, g *GPU) {
	list := c.posting[fn]
	lo := postingIndex(list, g.pos)
	if lo >= len(list) || list[lo] != g {
		return
	}
	list = slices.Delete(list, lo, lo+1)
	if len(list) == 0 {
		delete(c.posting, fn)
	} else {
		c.posting[fn] = list
	}
}

// ---------------------------------------------------------------------------
// State classes.

// StateClass is one placement state of the fleet: the healthy active
// GPUs of one device generation holding exactly the same ΣReq, ΣLim and
// memory use. Algorithm 1's feasibility test and fragmentation score read
// only those fields (and the generation's Capacity and MemCapMB), so
// every member fits and scores alike and a scan evaluates the class
// once. Members sit in a min-heap of inventory positions: the lowest-
// position member is O(1) and a move in or out is O(log k). The exported
// fields are the class key; callers must treat them as read-only.
type StateClass struct {
	SumReq, SumLim, MemUsedMB float64
	Capacity, MemCapMB        float64

	clu      *Cluster
	classIdx int
	slot     int     // index in the cluster's class table
	members  []int32 // min-heap of member inventory positions
}

// classKey identifies a state class: the exact state Algorithm 1 reads
// and the device generation.
type classKey struct {
	sumReq, sumLim, memUsed float64
	gen                     int
}

func (s *StateClass) key() classKey {
	return classKey{s.SumReq, s.SumLim, s.MemUsedMB, s.classIdx}
}

// Util returns the members' normalized utilization ΣReq/Capacity,
// bit-identical to GPU.Util of every member.
func (s *StateClass) Util() float64 { return s.SumReq / s.Capacity }

// Len returns the number of member GPUs (at least one).
func (s *StateClass) Len() int { return len(s.members) }

// Member returns the i-th member, 0 ≤ i < Len(), in unspecified order.
func (s *StateClass) Member(i int) *GPU { return s.clu.gpus[s.members[i]] }

// Min returns the member earliest in inventory order.
func (s *StateClass) Min() *GPU { return s.clu.gpus[s.members[0]] }

// MinPos returns Min().Pos() without touching the GPU.
func (s *StateClass) MinPos() int { return int(s.members[0]) }

// MinWithout returns the member earliest in inventory order that hosts
// no placement of fn, or nil if every member does. It descends the heap
// only below members hosting fn, so it costs O(h) for h such members,
// not O(Len()).
func (s *StateClass) MinWithout(fn string) *GPU {
	if pos := s.minWithout(0, fn, math.MaxInt32); pos < math.MaxInt32 {
		return s.clu.gpus[pos]
	}
	return nil
}

// minWithout returns the lowest position below bound, in the heap
// subtree rooted at i, of a member not hosting fn; bound if none.
func (s *StateClass) minWithout(i int, fn string, bound int32) int32 {
	if i >= len(s.members) || s.members[i] >= bound {
		return bound // heap order: nothing below i is lower either
	}
	if pos := s.members[i]; !s.clu.gpus[pos].HostsFunc(fn) {
		return pos
	}
	return s.minWithout(2*i+2, fn, s.minWithout(2*i+1, fn, bound))
}

// KeepLowest merges the class's members into lowest, a list ascending
// by Pos, keeping its first k entries, and returns the list. It descends
// the heap only through members that enter the list, so it costs O(k)
// per class however many members the class has.
func (s *StateClass) KeepLowest(lowest []*GPU, k int) []*GPU {
	return s.keepLowest(0, lowest, k)
}

func (s *StateClass) keepLowest(i int, lowest []*GPU, k int) []*GPU {
	if i >= len(s.members) {
		return lowest
	}
	pos := int(s.members[i])
	if len(lowest) == k {
		if pos >= lowest[k-1].pos {
			return lowest // heap order: nothing below i enters either
		}
		lowest = lowest[:k-1]
	}
	j := len(lowest)
	for j > 0 && lowest[j-1].pos > pos {
		j--
	}
	lowest = slices.Insert(lowest, j, s.clu.gpus[pos])
	return s.keepLowest(2*i+2, s.keepLowest(2*i+1, lowest, k), k)
}

// set stores pos at heap index i and records i in the GPU's slot.
func (s *StateClass) set(i int, pos int32) {
	s.members[i] = pos
	s.clu.gpus[pos].slot = i
}

// up and down sift the member at heap index i into place, moving the
// members it passes one level each and storing it once at the end.
func (s *StateClass) up(i int) {
	pos := s.members[i]
	for i > 0 {
		parent := (i - 1) / 2
		if s.members[parent] <= pos {
			break
		}
		s.set(i, s.members[parent])
		i = parent
	}
	s.set(i, pos)
}

func (s *StateClass) down(i int) {
	h := s.members
	pos := h[i]
	for {
		least := 2*i + 1
		if least >= len(h) {
			break
		}
		if r := least + 1; r < len(h) && h[r] < h[least] {
			least = r
		}
		if h[least] >= pos {
			break
		}
		s.set(i, h[least])
		i = least
	}
	s.set(i, pos)
}

func (s *StateClass) push(g *GPU) {
	s.members = append(s.members, int32(g.pos))
	s.up(len(s.members) - 1)
}

// remove drops the member at heap index i: the last member takes its
// place and sifts whichever way the heap order needs.
func (s *StateClass) remove(i int) {
	last := len(s.members) - 1
	s.members[i] = s.members[last]
	s.members = s.members[:last]
	if i < last {
		if i > 0 && s.members[(i-1)/2] > s.members[i] {
			s.up(i)
		} else {
			s.down(i)
		}
	}
}

// Classes returns the live state classes, which together hold every
// healthy active GPU once, after refiling the GPUs a KV-cache charge
// left dirty. Order is not specified — consumers needing the tie order
// of an inventory scan must rank by (key, Pos()) lexicographically. The
// returned slice is the cluster's live index: read-only, not to be held
// across placement changes.
func (c *Cluster) Classes() []*StateClass {
	c.flushDirty()
	return c.table
}

// markDirty defers g's refiling after a KV-cache charge to the next
// Classes call: a flag and, the first time, an append to the dirty list.
func (c *Cluster) markDirty(g *GPU) {
	if !g.dirty {
		g.dirty = true
		c.dirty = append(c.dirty, int32(g.pos))
	}
}

// flushDirty refiles every GPU still marked dirty.
func (c *Cluster) flushDirty() {
	if len(c.dirty) == 0 {
		return
	}
	for _, pos := range c.dirty {
		if g := c.gpus[pos]; g.dirty {
			c.refile(g)
		}
	}
	c.dirty = c.dirty[:0]
}

// refile files g in the state class of its current state, or unfiles it
// when it has gone inactive or unhealthy. A GPU whose key is unchanged
// stays where it is.
func (c *Cluster) refile(g *GPU) {
	g.dirty = false
	cl := g.cls
	if g.Active() && g.health == Healthy {
		if cl != nil && cl.SumReq == g.SumReq && cl.SumLim == g.SumLim && cl.MemUsedMB == g.MemUsedMB {
			return
		}
	} else if cl == nil {
		return
	}
	if cl != nil {
		c.leaveClass(g)
	}
	if g.Active() && g.health == Healthy {
		c.joinClass(g)
	}
}

// joinClass adds g to the class of its key, creating the class (from
// the free list when possible) if the table has none.
func (c *Cluster) joinClass(g *GPU) {
	k := classKey{g.SumReq, g.SumLim, g.MemUsedMB, g.classIdx}
	cl := c.byKey[k]
	if cl == nil {
		if n := len(c.freeClasses); n > 0 {
			cl = c.freeClasses[n-1]
			c.freeClasses = c.freeClasses[:n-1]
		} else {
			cl = &StateClass{clu: c}
		}
		cl.SumReq, cl.SumLim, cl.MemUsedMB = g.SumReq, g.SumLim, g.MemUsedMB
		cl.Capacity, cl.MemCapMB, cl.classIdx = g.Capacity, g.MemCapMB, g.classIdx
		cl.slot = len(c.table)
		c.table = append(c.table, cl)
		c.byKey[k] = cl
	}
	cl.push(g)
	g.cls = cl
}

// leaveClass removes g from its class; an emptied class leaves the
// table (a swap-remove) and returns to the free list.
func (c *Cluster) leaveClass(g *GPU) {
	cl := g.cls
	g.cls = nil
	cl.remove(g.slot)
	if len(cl.members) > 0 {
		return
	}
	last := len(c.table) - 1
	c.table[cl.slot] = c.table[last]
	c.table[cl.slot].slot = cl.slot
	c.table[last] = nil // don't pin the recycled class
	c.table = c.table[:last]
	delete(c.byKey, cl.key())
	c.freeClasses = append(c.freeClasses, cl)
}

// Stats aggregates the fragmentation view of the cluster.
type Stats struct {
	OccupiedGPUs int
	TotalGPUs    int
	// SMFrag is the mean normalized SM share of active GPUs not covered
	// by any instance's true compute need (1 − ΣTrueReq/Capacity,
	// floored at 0) — the dark bars of Figure 17. Exclusive allocation
	// shows high SMFrag because whole GPUs back fractional needs.
	SMFrag float64
	// MemFrag is the mean unreserved memory share across active GPUs —
	// the striped bars of Figure 17.
	MemFrag float64
	// MeanReq and MeanMem are allocation densities of active GPUs
	// (normalized utilization and memory share).
	MeanReq float64
	MeanMem float64
}

// Snapshot computes the current fragmentation stats.
func (c *Cluster) Snapshot() Stats {
	st := Stats{TotalGPUs: len(c.gpus)}
	for _, g := range c.gpus {
		if !g.Active() {
			continue
		}
		st.OccupiedGPUs++
		smFree := 1 - g.SumTrueReq/g.Capacity
		if smFree < 0 {
			smFree = 0
		}
		st.SMFrag += smFree
		st.MemFrag += 1 - g.MemUsedMB/g.MemCapMB
		st.MeanReq += g.Util()
		st.MeanMem += g.MemUsedMB / g.MemCapMB
	}
	if st.OccupiedGPUs > 0 {
		n := float64(st.OccupiedGPUs)
		st.SMFrag /= n
		st.MemFrag /= n
		st.MeanReq /= n
		st.MeanMem /= n
	}
	return st
}

// ClassStat is the per-device-generation slice of the fleet view.
type ClassStat struct {
	Name     string
	Capacity float64
	MemCapMB float64
	Total    int
	Occupied int
	Retired  int // draining or failed
	SumReq   float64
}

// ClassStats aggregates occupancy per GPU class, in class declaration
// order (one synthetic "uniform" entry on homogeneous clusters).
func (c *Cluster) ClassStats() []ClassStat {
	out := make([]ClassStat, len(c.classes))
	for i, cl := range c.classes {
		out[i] = ClassStat{Name: cl.Name, Capacity: cl.Capacity, MemCapMB: cl.MemCapMB}
	}
	for _, g := range c.gpus {
		st := &out[g.classIdx]
		st.Total++
		if g.Active() {
			st.Occupied++
		}
		if !g.Schedulable() {
			st.Retired++
		}
		st.SumReq += g.SumReq
	}
	return out
}
