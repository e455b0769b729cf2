package gpu

import (
	"fmt"
	"math"
)

// DefaultCapacityPerTick is the number of kernel-block units an A100-class
// device executes per 5 ms token period at 100% SM utilization. Work
// figures in the model catalog are calibrated against this constant.
const DefaultCapacityPerTick = 5000.0

// DefaultMemoryMB mirrors the A100-40GB cards of the paper's testbed.
const DefaultMemoryMB = 40 * 1024.0

// Device is one simulated GPU. Residents are the execution contexts of
// collocated function instances; each tick the device executes up to its
// block capacity across residents, honoring token grants and resolving SM
// contention by proportional waterfilling.
type Device struct {
	ID       string
	Capacity float64 // block-units per tick at full SM
	MemoryMB float64

	residents []*Resident
	usedMem   float64
	// tick is ExecuteTick's per-resident scratch, reused across ticks so
	// the 5 ms execution loop does not allocate.
	tick []tickScratch
	// solved holds the previous tick's contention scale and the
	// occupancy it leaves while that tick's inputs — the residents, their
	// curves, Capacity and every want in tick — are unchanged: a repeat
	// tick reuses them instead of solving. SetSatK invalidates it when K
	// changes (Attach's SetSatK(1) always does: a new resident's K is
	// 0), and so does Detach.
	solved                 bool
	solvedScale, solvedOcc float64
	solvedCap              float64

	// slow is the gray-failure straggler factor: when > 1 every usable
	// rate is divided by it, so the device does one tick's work in slow
	// ticks while still reporting nominal Capacity to the scheduler —
	// exactly the signal mismatch that makes stragglers gray. Zero (the
	// untouched default) and 1 mean full speed.
	slow float64

	// lastOccupancy is the total SM share consumed in the previous
	// ExecuteTick, in [0,1]. Exposed for utilization/fragmentation traces.
	lastOccupancy float64
	// lastExecuted is the total blocks executed in the previous tick.
	lastExecuted float64
	// totalExecuted accumulates blocks over the device lifetime.
	totalExecuted float64
	ticks         int64
	occupancySum  float64
}

// NewDevice returns a device with default A100-like capacity and memory.
func NewDevice(id string) *Device {
	return &Device{ID: id, Capacity: DefaultCapacityPerTick, MemoryMB: DefaultMemoryMB}
}

// Resident is one instance's execution context on a device: its memory
// reservation, the saturation curve of its kernel mix with the memos the
// tick evaluates that curve through, and its block demand and grant.
type Resident struct {
	dev   *Device
	ID    string
	MemMB float64

	satK float64 // saturation constant for the current kernel mix
	cv   curve   // eff_K for satK, constants cached by SetSatK
	// Memos of cv's evaluations for the tick to reuse, since grants and
	// demand mostly repeat from one 5 ms tick to the next. Every entry
	// is keyed on K as well as on its input, so a change of K needs no
	// clearing, and a K that flips back finds whatever entries no tick
	// under the other K replaced.
	// inv keeps one entry per bound of the tick's want (grantBound,
	// demandBound): a decoding resident alternates between the two.
	// Zero inputs map to zero outputs on every curve, so the zero value
	// is a valid entry.
	effMemo effEntry
	invMemo [2]invEntry

	pending float64 // block demand not yet executed
	granted float64 // token grant for the current tick, in blocks

	executedLast  float64 // blocks executed in the previous tick
	demandLast    float64 // pending at the start of the previous tick
	grantedLast   float64
	usableLast    float64 // grant- and contention-bounded rate last tick
	totalLaunched float64 // cumulative executed blocks (Fig. 13/14 traces)

	detached bool
}

// Attach reserves memMB on the device and registers a resident. It fails
// when the device lacks free memory (constraint 4 of the scheduling
// objective).
func (d *Device) Attach(id string, memMB float64) (*Resident, error) {
	if d.usedMem+memMB > d.MemoryMB {
		return nil, fmt.Errorf("gpu %s: out of memory: used %.0f + %.0f > %.0f MB",
			d.ID, d.usedMem, memMB, d.MemoryMB)
	}
	r := &Resident{dev: d, ID: id, MemMB: memMB}
	r.SetSatK(1)
	d.usedMem += memMB
	d.residents = append(d.residents, r)
	return r, nil
}

// Detach releases the resident's memory and removes it from the device.
func (d *Device) Detach(r *Resident) {
	if r == nil || r.detached || r.dev != d {
		return
	}
	r.detached = true
	d.solved = false
	d.usedMem -= r.MemMB
	for i, res := range d.residents {
		if res == r {
			d.residents = append(d.residents[:i], d.residents[i+1:]...)
			break
		}
	}
}

// GrowMem enlarges the resident's reservation in place (KV-cache growth
// during token-level decode). The caller is responsible for checking
// feasibility against the cluster's MemCapMB view first; the device
// mirrors the charge so its MemUsedMB stays consistent with placements.
func (r *Resident) GrowMem(mb float64) {
	if r == nil || r.detached || mb <= 0 {
		return
	}
	r.MemMB += mb
	r.dev.usedMem += mb
}

// ShrinkMem returns part of the resident's reservation (KV-cache release
// on sequence completion, preemption, or abort).
func (r *Resident) ShrinkMem(mb float64) {
	if r == nil || r.detached || mb <= 0 {
		return
	}
	r.MemMB -= mb
	r.dev.usedMem -= mb
}

// Residents returns the currently attached residents. The slice is the
// device's live bookkeeping — callers must treat it as read-only and must
// not hold it across Attach/Detach; use ResidentCount for hot-path
// presence checks.
func (d *Device) Residents() []*Resident { return d.residents }

// ResidentCount returns the number of attached residents without exposing
// the underlying slice.
func (d *Device) ResidentCount() int { return len(d.residents) }

// MemUsedMB returns reserved device memory.
func (d *Device) MemUsedMB() float64 { return d.usedMem }

// MemFreeMB returns unreserved device memory.
func (d *Device) MemFreeMB() float64 { return d.MemoryMB - d.usedMem }

// SetSlowdown sets the straggler factor applied to every resident's
// usable rate (f > 1 stretches execution f×; f ≤ 1 restores full
// speed). Fault injection's knob — the health monitor reads it back via
// Slowdown the way a DCGM-style per-GPU probe would observe degraded
// throughput.
func (d *Device) SetSlowdown(f float64) {
	if f <= 1 {
		f = 0
	}
	d.slow = f
}

// Slowdown returns the current straggler factor (1 when the device runs
// at full speed).
func (d *Device) Slowdown() float64 {
	if d.slow > 1 {
		return d.slow
	}
	return 1
}

// LastOccupancy returns the SM share consumed in the previous tick.
func (d *Device) LastOccupancy() float64 { return d.lastOccupancy }

// LastExecuted returns blocks executed in the previous tick.
func (d *Device) LastExecuted() float64 { return d.lastExecuted }

// TotalExecuted returns cumulative blocks executed.
func (d *Device) TotalExecuted() float64 { return d.totalExecuted }

// MeanOccupancy returns the average SM occupancy across all ticks so far.
func (d *Device) MeanOccupancy() float64 {
	if d.ticks == 0 {
		return 0
	}
	return d.occupancySum / float64(d.ticks)
}

// SetSatK sets the saturation constant K of the resident's current
// kernel mix (see Eff). The curve constants are derived here, once per
// change, not in every tick, and the device's solved tick is dropped.
// The eff and inv memos are keyed on K, so they stay. An unchanged K
// returns at once: instances call it every step.
func (r *Resident) SetSatK(k float64) {
	if k == r.satK {
		return
	}
	r.satK = k
	r.cv = newCurve(k)
	r.dev.solved = false
}

// effEntry is one memoized cv.eff(s) under saturation constant k.
type effEntry struct{ k, s, v float64 }

// invEntry is one memoized cv.inv(y) under saturation constant k.
type invEntry struct{ k, y, occ, elast float64 }

// The inv memo entries: a tick's want is either its grant-bounded
// usable rate or its pending demand.
const (
	grantBound = iota
	demandBound
)

// eff is cv.eff(s), reused while s and K repeat the memoized call.
func (r *Resident) eff(s float64) float64 {
	m := &r.effMemo
	if s != m.s || r.satK != m.k {
		*m = effEntry{k: r.satK, s: s, v: r.cv.eff(s)}
	}
	return m.v
}

// inv is cv.inv(y), reused while y and K repeat memo entry e's call.
func (r *Resident) inv(e int, y float64) (occ, elast float64) {
	m := &r.invMemo[e]
	if y != m.y || r.satK != m.k {
		occ, elast := r.cv.inv(y)
		*m = invEntry{k: r.satK, y: y, occ: occ, elast: elast}
	}
	return m.occ, m.elast
}

// SatK returns the saturation constant set by SetSatK (1 at Attach).
func (r *Resident) SatK() float64 { return r.satK }

// AddWork enqueues block demand for the resident.
func (r *Resident) AddWork(blocks float64) {
	if blocks > 0 {
		r.pending += blocks
	}
}

// ClearWork drops any not-yet-executed demand (instance termination or
// batch cancellation).
func (r *Resident) ClearWork() { r.pending = 0 }

// Pending returns the outstanding block demand.
func (r *Resident) Pending() float64 { return r.pending }

// SetGrant sets the token grant (in blocks) for the next tick.
func (r *Resident) SetGrant(tokens float64) {
	if tokens < 0 {
		tokens = 0
	}
	r.granted = tokens
}

// Grant returns the current token grant.
func (r *Resident) Grant() float64 { return r.granted }

// ExecutedLast returns blocks executed in the previous tick — the kernel
// launch rate R_current that RCKM's rate windows observe.
func (r *Resident) ExecutedLast() float64 { return r.executedLast }

// DemandLast returns the demand present at the start of the previous tick.
func (r *Resident) DemandLast() float64 { return r.demandLast }

// GrantedLast returns the grant that applied in the previous tick.
func (r *Resident) GrantedLast() float64 { return r.grantedLast }

// CompletionFraction estimates how far into the previous tick the
// resident's demand drained, for sub-tick latency interpolation. It
// returns 1 when the demand outlived the tick.
func (r *Resident) CompletionFraction() float64 {
	if r.pending > 0 || r.usableLast <= 0 {
		return 1
	}
	f := r.executedLast / r.usableLast
	if f > 1 {
		return 1
	}
	if f < 0 {
		return 0
	}
	return f
}

// TotalLaunched returns cumulative executed blocks.
func (r *Resident) TotalLaunched() float64 { return r.totalLaunched }

// Device returns the device the resident is attached to.
func (r *Resident) Device() *Device { return r.dev }

// tickScratch is one resident's ExecuteTick state between its passes.
type tickScratch struct {
	want float64 // blocks the resident can execute absent contention
	full float64 // Capacity·eff(grant/Capacity), before any straggler factor
}

// ExecuteTick runs one 5 ms execution round. For each resident the usable
// rate is Capacity·eff(K, grant/Capacity), bounded by pending demand.
// When the summed SM occupancy implied by those rates exceeds the device,
// all residents are scaled back by a common factor λ (proportional
// waterfill), which is precisely the contention that inflates kernel
// launch cycles in the paper's §3.4.1 observation. λ is the largest
// multiple of 2^-30 below 1 whose summed occupancy stays ≤ 1 — the
// answer of a 30-step bisection on [0, 1] — found by contendedScale.
func (d *Device) ExecuteTick() {
	if cap(d.tick) < len(d.residents) {
		d.tick = make([]tickScratch, len(d.residents))
	}
	tick := d.tick[:len(d.residents)]
	var totalOcc, totalElast float64
	repeat := d.solved && d.Capacity == d.solvedCap
	for i, r := range d.residents {
		r.demandLast = r.pending
		r.grantedLast = r.granted
		full := d.Capacity * r.eff(r.granted/d.Capacity)
		usable := full
		if d.slow > 1 { // straggler: stretch execution, keep nominal capacity
			usable /= d.slow
		}
		w, bound := r.pending, demandBound
		if w > usable {
			w, bound = usable, grantBound
		}
		repeat = repeat && w == tick[i].want
		tick[i] = tickScratch{want: w, full: full}
		occ, elast := r.inv(bound, w/d.Capacity)
		totalOcc += occ
		totalElast += elast
	}

	// Uncontended, every resident executes exactly its want, whose
	// occupancies were just summed.
	contended := totalOcc > 1
	scale, occTotal := 1.0, totalOcc
	if contended {
		if !repeat {
			d.solvedScale, d.solvedOcc = d.contendedScale(tick, totalOcc, totalElast)
			d.solvedCap = d.Capacity
		}
		scale, occTotal = d.solvedScale, d.solvedOcc
	}
	d.solved = contended

	var executedTotal float64
	for i, r := range d.residents {
		r.usableLast = tick[i].full * scale
		if d.slow > 1 {
			r.usableLast /= d.slow
		}
		x := tick[i].want * scale // ≤ want ≤ pending
		r.pending -= x
		r.executedLast = x
		r.totalLaunched += x
		executedTotal += x
	}
	d.lastExecuted = executedTotal
	d.totalExecuted += executedTotal
	d.lastOccupancy = occTotal
	d.occupancySum += occTotal
	d.ticks++
}

// scaleGrid is the resolution of the contention scale λ: 2^30, the grid
// a 30-step bisection on [0, 1] walks.
const scaleGrid = 1 << 30

// maxNewton bounds contendedScale's root-finding steps; whatever bracket
// they leave is finished by bisection.
const maxNewton = 12

// contendedScale returns the largest λ = k/2^30 < 1 with Σ occ(λ) ≤ 1,
// and that Σ occ(λ), where occ(λ) sums EffInv(K_i, λ·want_i/Capacity)
// in resident order, given occ(1) = occ > 1 and its elasticity
// Σ λ·∂occ_i/∂λ at λ = 1.
//
// occ is nondecreasing in λ, so the answer is fixed by a bracket of grid
// indices lo < hi with occ(lo) ≤ 1 < occ(hi), starting at [0, 2^30].
// Newton steps on ln occ against ln λ — convex, since every resident's
// term is 0, linear or log-convex in λ — shrink the bracket: each lands
// on a grid point strictly inside it, falling back to its midpoint when
// the step leaves it. The rest is the 30-step bisection itself, walking
// the same midpoints, but evaluating only those strictly inside the
// bracket: every other comparison is already decided by lo or hi. So the
// result is bit-for-bit what the full bisection returns, in 14.2
// evaluations of occ on average instead of 30 (the mean over the
// scale-1 registry suite's fresh solves).
func (d *Device) contendedScale(tick []tickScratch, occ, elast float64) (scale, occScale float64) {
	lo, hi := int64(0), int64(scaleGrid) // occ(0) = 0 ≤ 1 < occ(1)
	occLo, lam := 0.0, 1.0
	for it := 0; it < maxNewton && hi-lo > 1; it++ {
		k := lo + (hi-lo)/2
		// ln occ(λ·e^δ) ≈ ln occ + δ·elast/occ = 0
		if t := lam * math.Exp(-occ*math.Log(occ)/elast) * scaleGrid; t > float64(lo) && t < float64(hi) {
			if k = int64(t); k == lo {
				k++
			}
		}
		lam = float64(k) / scaleGrid
		if occ, elast = d.occupancyAt(tick, lam); occ > 1 {
			hi = k
		} else {
			lo, occLo = k, occ
		}
	}
	b := int64(0)
	for step := int64(scaleGrid / 2); step > 0; step /= 2 {
		m := b + step
		if m >= hi {
			continue
		}
		if m > lo {
			o, _ := d.occupancyAt(tick, float64(m)/scaleGrid)
			if o > 1 {
				hi = m
				continue
			}
			lo, occLo = m, o
		}
		b = m
	}
	// The walk ends on b = lo: b never passes lo, and it stops below a
	// point decided > 1, which is at or past hi = lo + 1.
	return float64(b) / scaleGrid, occLo
}

// occupancyAt returns Σ EffInv(K_i, λ·want_i/Capacity) over the residents
// and the sum of the terms' elasticities in λ.
func (d *Device) occupancyAt(tick []tickScratch, lam float64) (occ, elast float64) {
	for i, r := range d.residents {
		o, e := r.cv.inv(lam * tick[i].want / d.Capacity)
		occ += o
		elast += e
	}
	return occ, elast
}
