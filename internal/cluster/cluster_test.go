package cluster

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// uniformMem is the one-class fleet New builds by default, with the
// given per-GPU memory.
func uniformMem(mb float64) []GPUClass {
	return []GPUClass{{Name: "uniform", Capacity: 1, MemCapMB: mb}}
}

func TestNewClusterShape(t *testing.T) {
	c := New(Config{Nodes: 5, GPUsPerNode: 4})
	if len(c.Nodes) != 5 {
		t.Fatalf("nodes = %d", len(c.Nodes))
	}
	if len(c.GPUs()) != 20 {
		t.Fatalf("gpus = %d", len(c.GPUs()))
	}
	if c.GPUs()[7].Node != c.Nodes[1] {
		t.Fatal("gpu/node linkage broken")
	}
}

func TestNewClusterDefaults(t *testing.T) {
	c := New(Config{})
	if len(c.GPUs()) != 4 {
		t.Fatalf("default cluster = %d GPUs, want 4", len(c.GPUs()))
	}
	if c.GPUs()[0].MemCapMB != 40*1024 {
		t.Fatalf("default memory = %v", c.GPUs()[0].MemCapMB)
	}
	if c.GPUs()[0].Dev != nil {
		t.Fatal("devices must be opt-in")
	}
}

func TestWithDevices(t *testing.T) {
	c := New(Config{Nodes: 1, GPUsPerNode: 2, WithDevices: true})
	for _, g := range c.GPUs() {
		if g.Dev == nil {
			t.Fatal("missing device")
		}
		if g.Dev.MemoryMB != g.MemCapMB {
			t.Fatal("device memory mismatch")
		}
	}
}

func TestPlaceRemoveAccounting(t *testing.T) {
	c := New(Config{Nodes: 1, GPUsPerNode: 1})
	g := c.GPUs()[0]
	p1 := &Placement{Instance: "i1", Func: "f", Req: 0.3, Lim: 0.6, MemMB: 1000}
	p2 := &Placement{Instance: "i2", Func: "g", Req: 0.4, Lim: 0.7, MemMB: 2000}
	if err := g.Place(p1); err != nil {
		t.Fatal(err)
	}
	if err := g.Place(p2); err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.SumReq-0.7) > 1e-9 || math.Abs(g.SumLim-1.3) > 1e-9 || g.MemUsedMB != 3000 {
		t.Fatalf("accounting: req=%v lim=%v mem=%v", g.SumReq, g.SumLim, g.MemUsedMB)
	}
	g.Remove(p1)
	if math.Abs(g.SumReq-0.4) > 1e-9 || g.MemUsedMB != 2000 {
		t.Fatalf("after remove: req=%v mem=%v", g.SumReq, g.MemUsedMB)
	}
	if !g.HostsFunc("g") || g.HostsFunc("f") {
		t.Fatal("HostsFunc wrong")
	}
}

func TestPlaceMemoryOverflow(t *testing.T) {
	c := New(Config{Nodes: 1, GPUsPerNode: 1, Classes: uniformMem(1000)})
	g := c.GPUs()[0]
	if err := g.Place(&Placement{MemMB: 1001}); err == nil {
		t.Fatal("expected overflow error")
	}
}

func TestOccupiedAndActive(t *testing.T) {
	c := New(Config{Nodes: 2, GPUsPerNode: 2})
	if c.OccupiedCount() != 0 {
		t.Fatal("fresh cluster occupied")
	}
	g := c.GPUs()[2]
	_ = g.Place(&Placement{Instance: "a", Func: "f", Req: 0.5, MemMB: 10})
	if c.OccupiedCount() != 1 {
		t.Fatalf("occupied = %d", c.OccupiedCount())
	}
	act := slices.Collect(c.ActiveGPUs())
	if len(act) != 1 || act[0] != g {
		t.Fatal("ActiveGPUs wrong")
	}
}

func TestSnapshotFragmentation(t *testing.T) {
	c := New(Config{Nodes: 1, GPUsPerNode: 2, Classes: uniformMem(1000)})
	_ = c.GPUs()[0].Place(&Placement{Instance: "a", Func: "f", Req: 0.6, MemMB: 250})
	// GPU 1 idle: must not enter fragmentation averages.
	st := c.Snapshot()
	if st.OccupiedGPUs != 1 || st.TotalGPUs != 2 {
		t.Fatalf("occupancy: %+v", st)
	}
	if math.Abs(st.SMFrag-0.4) > 1e-9 {
		t.Fatalf("SM frag = %v, want 0.4", st.SMFrag)
	}
	if math.Abs(st.MemFrag-0.75) > 1e-9 {
		t.Fatalf("mem frag = %v, want 0.75", st.MemFrag)
	}
}

func TestSnapshotClampsOversubscription(t *testing.T) {
	c := New(Config{Nodes: 1, GPUsPerNode: 1})
	g := c.GPUs()[0]
	_ = g.Place(&Placement{Instance: "a", Func: "f", Req: 0.7, MemMB: 10})
	_ = g.Place(&Placement{Instance: "b", Func: "g", Req: 0.7, MemMB: 10})
	st := c.Snapshot()
	if st.SMFrag != 0 {
		t.Fatalf("oversubscribed GPU must report zero SM frag, got %v", st.SMFrag)
	}
}

func TestFuncsSet(t *testing.T) {
	c := New(Config{Nodes: 1, GPUsPerNode: 1})
	g := c.GPUs()[0]
	_ = g.Place(&Placement{Instance: "a", Func: "f", MemMB: 1})
	_ = g.Place(&Placement{Instance: "b", Func: "f", MemMB: 1})
	_ = g.Place(&Placement{Instance: "c", Func: "g", MemMB: 1})
	fs := g.Funcs()
	if len(fs) != 2 || !fs["f"] || !fs["g"] {
		t.Fatalf("funcs = %v", fs)
	}
}

// Property: place/remove sequences leave accounting consistent with the
// surviving placements.
func TestAccountingConsistencyProperty(t *testing.T) {
	f := func(ops []struct {
		Req, Lim uint8
		Mem      uint16
		Remove   bool
	}) bool {
		c := New(Config{Nodes: 1, GPUsPerNode: 1, Classes: uniformMem(1e9)})
		g := c.GPUs()[0]
		var live []*Placement
		for i, op := range ops {
			if op.Remove && len(live) > 0 {
				p := live[i%len(live)]
				g.Remove(p)
				for j, q := range live {
					if q == p {
						live = append(live[:j], live[j+1:]...)
						break
					}
				}
				continue
			}
			p := &Placement{
				Instance: "x", Func: "f",
				Req: float64(op.Req) / 255, Lim: float64(op.Lim) / 255,
				MemMB: float64(op.Mem),
			}
			if g.Place(p) == nil {
				live = append(live, p)
			}
		}
		var req, lim, mem float64
		for _, p := range live {
			req += p.Req
			lim += p.Lim
			mem += p.MemMB
		}
		return math.Abs(g.SumReq-req) < 1e-6 &&
			math.Abs(g.SumLim-lim) < 1e-6 &&
			math.Abs(g.MemUsedMB-mem) < 1e-6 &&
			len(g.Placements) == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFitQuarantineAndClassStats covers the capacity-aware fresh-GPU
// lookup on a mixed fleet, the quarantine round trip through the state
// classes, and the per-generation occupancy view.
func TestFitQuarantineAndClassStats(t *testing.T) {
	c := New(Config{Nodes: 2, GPUsPerNode: 2, Classes: []GPUClass{
		{Name: "big", Capacity: 1, MemCapMB: 1000},
		{Name: "small", Capacity: 0.5, MemCapMB: 500},
	}})
	gs := c.GPUs() // node 0 is big, node 1 small
	if err := gs[0].Place(&Placement{Instance: "a", Func: "f", Req: 0.4, Lim: 0.4, MemMB: 100}); err != nil {
		t.Fatal(err)
	}
	if err := gs[2].Place(&Placement{Instance: "b", Func: "f", Req: 0.2, Lim: 0.2, MemMB: 100}); err != nil {
		t.Fatal(err)
	}
	if g := c.FirstInactiveFit(0.5, 100); g != gs[1] {
		t.Fatalf("FirstInactiveFit = %v, want %s", g, gs[1].ID)
	}
	c.DrainNode(c.Nodes[0])
	if g := c.FirstInactiveFit(0.5, 100); g != gs[3] {
		t.Fatalf("FirstInactiveFit past a drained node = %v, want %s", g, gs[3].ID)
	}
	if g := c.FirstInactiveFit(0.8, 100); g != nil {
		t.Fatalf("no idle GPU has capacity 0.8, got %s", g.ID)
	}
	if g := c.FirstInactiveFit(0.5, 600); g != nil {
		t.Fatalf("no idle GPU has 600 MB, got %s", g.ID)
	}
	if c.FirstInactiveFit(0, 0) != gs[3] {
		t.Fatal("a refused fit must leave the GPU in the free set")
	}
	c.JoinNode(c.Nodes[0])

	inClasses := func(g *GPU) bool {
		for _, cl := range c.Classes() {
			for i := range cl.Len() {
				if cl.Member(i) == g {
					return true
				}
			}
		}
		return false
	}
	c.QuarantineGPU(gs[2])
	if gs[2].Health().String() != "quarantined" || gs[2].Schedulable() || inClasses(gs[2]) {
		t.Fatalf("quarantined GPU still offered: %s", gs[2].Health())
	}
	c.ReadmitGPU(gs[2])
	if !gs[2].Schedulable() || !inClasses(gs[2]) {
		t.Fatal("readmitted GPU must rejoin its state class")
	}
	c.DrainNode(c.Nodes[1])
	c.ReadmitGPU(gs[2]) // the health monitor never undoes a drain
	if gs[2].Health() != Draining || gs[2].Health().String() != "draining" {
		t.Fatalf("ReadmitGPU touched a draining GPU: %s", gs[2].Health())
	}
	if cl := gs[0].cls; cl == nil || cl.MinWithout("f") != nil || cl.MinWithout("g") != gs[0] {
		t.Fatal("MinWithout must skip the only member, which hosts f")
	}
	if gs[3].Pos() != 3 || !gs[0].Funcs()["f"] || len(gs[0].Funcs()) != 1 || gs[0].Node.KernelsWarm("f") {
		t.Fatal("GPU accessors disagree with the inventory")
	}
	want := []ClassStat{
		{Name: "big", Capacity: 1, MemCapMB: 1000, Total: 2, Occupied: 1, SumReq: 0.4},
		{Name: "small", Capacity: 0.5, MemCapMB: 500, Total: 2, Occupied: 1, Retired: 2, SumReq: 0.2},
	}
	if got := c.ClassStats(); !slices.Equal(got, want) {
		t.Fatalf("ClassStats = %+v, want %+v", got, want)
	}
	c.FailNode(c.Nodes[1])
	if gs[2].Health().String() != "failed" || Healthy.String() != "healthy" {
		t.Fatalf("health names: %s", gs[2].Health())
	}
	checkIndexesConsistent(t, c, 0)
}
