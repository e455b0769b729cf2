package core

import (
	"runtime"
	"testing"
	"unsafe"

	"dilu/internal/instance"
	"dilu/internal/sim"
	"dilu/internal/workload"
)

// A warm function's request path — arrival, gateway, instance queue,
// batch, completion — reuses its buffers: over 20 s of steady Poisson
// load on a fixed two-instance pool, the heap sees far fewer than one
// allocation per served request and less than one Request's size in
// bytes. What remains is amortised growth of the latency recorder's
// sample slice.
func TestWarmServingAllocsPerRequest(t *testing.T) {
	sys := MustSystem(Config{Nodes: 1, GPUsPerNode: 2, Seed: 1})
	f, err := sys.DeployInference("bert", "BERT-base", InferOpts{
		Instances: 2, NoScaler: true, Arrivals: workload.Poisson{RPS: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(10 * sim.Second)
	served := f.Served()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sys.Run(20 * sim.Second)
	runtime.ReadMemStats(&after)
	served = f.Served() - served
	if served < 3000 {
		t.Fatalf("served %d requests in 20 s at 200 rps", served)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / float64(served)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(served)
	t.Logf("%d requests: %.4f allocations and %.1f B per request", served, allocs, bytes)
	if allocs > 0.05 || bytes >= float64(unsafe.Sizeof(instance.Request{})) {
		t.Fatalf("%.4f allocations and %.1f B per served request; want at most 0.05 and under %d B",
			allocs, bytes, unsafe.Sizeof(instance.Request{}))
	}
}
