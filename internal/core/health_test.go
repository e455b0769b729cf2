package core

import (
	"slices"
	"testing"

	"dilu/internal/cluster"
	"dilu/internal/instance"
	"dilu/internal/sim"
	"dilu/internal/workload"
)

// TestQuarantineCycleKeepsTickSet drives the health monitor through a
// quarantine by slowdown, a quarantine by repeated errors and a clean
// readmission, with serving and training work migrating off the ejected
// GPUs, and checks on every tick the premise the tick loop's single
// manager set rests on: a GPU's manager has clients exactly while its
// device has residents, and exactly then is it in the set. Busy
// instances must stay in the instance set throughout.
func TestQuarantineCycleKeepsTickSet(t *testing.T) {
	sys := MustSystem(Config{Nodes: 2, GPUsPerNode: 4, Seed: 1, Quarantine: true})
	f, err := sys.DeployInference("f", "BERT-base", InferOpts{
		Instances: 2, Arrivals: workload.Constant{RPS: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DeployTraining("t", "BERT-base", TrainOpts{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	// Everything starts on one GPU: a slowdown ejects it and the work
	// migrates; once it is readmitted, errors eject the GPU the first
	// instance moved to.
	target := func(g *cluster.GPU) (node, gpu int) {
		return slices.Index(sys.Clu.Nodes, g.Node), g.Index
	}
	slowNode, slowGPU := target(f.active[0].dec.GPUs[0])
	sys.ScheduleFaults([]workload.FaultEvent{
		{At: sim.Second + sim.Second/2, Kind: workload.FaultSlow, Node: slowNode, GPU: slowGPU, Factor: 3},
		{At: 3 * sim.Second, Kind: workload.FaultSlow, Node: slowNode, GPU: slowGPU, Factor: 1},
	})
	for i := range 3 {
		sys.Eng.Schedule(8*sim.Second+sim.Time(i)*sim.Second/4, func(sim.Time) {
			sys.ErrorGPU(target(f.active[0].dec.GPUs[0]))
		})
	}
	sys.OnTick(func(now sim.Time) {
		if list, index := sys.ActiveSetSizes(); list != index {
			t.Fatalf("%s: instance set list %d, index %d", now, list, index)
		}
		for _, fn := range sys.Functions() {
			fn.VisitInstances(func(in instance.Server, warm bool) {
				if in.Busy() && !sys.InActiveSet(in) {
					t.Fatalf("%s: busy instance %s (warm %v) outside the tick set", now, in.InstID(), warm)
				}
			})
		}
		for _, g := range sys.Clu.GPUs() {
			m := sys.Manager(g)
			clients, residents, inSet := len(m.Clients()), g.Dev.ResidentCount(), sys.ManagerInActiveSet(m)
			if (clients > 0) != inSet || (residents > 0) != inSet {
				t.Fatalf("%s: %s has %d clients and %d residents, manager in tick set %v",
					now, g.ID, clients, residents, inSet)
			}
		}
	})
	sys.Run(15 * sim.Second)
	st := sys.FaultStats()
	if st.SlowEvents != 2 || st.ErrorEvents != 3 || st.Quarantines != 2 || st.Readmits != 2 || st.QuarantineMigrations == 0 {
		t.Fatalf("fault stats %+v: want both GPUs quarantined, work migrated and both readmitted", st)
	}
	for _, g := range sys.Clu.GPUs() {
		if !g.Schedulable() {
			t.Fatalf("%s still %s after its clean probe", g.ID, g.Health())
		}
	}
}
