package core

import (
	"runtime"
	"testing"

	"dilu/internal/sim"
	"dilu/internal/workload"
)

// TestDeployInferenceStreamsArrivals guards the streamed arrival path:
// deploying a Figure 10 Gamma function allocates a bounded amount
// whatever its 4 h arrival bound holds (about 576k arrivals at 40 rps),
// because the engine pulls arrivals one at a time instead of the deploy
// materializing them. Pre-generating them costs about 25 MiB here.
func TestDeployInferenceStreamsArrivals(t *testing.T) {
	sys := MustSystem(Config{Nodes: 1, GPUsPerNode: 2})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f, err := sys.DeployInference("rob", "RoBERTa-large", InferOpts{
		Arrivals: workload.Gamma{RPS: 40, CV: 4},
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 64 << 10
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Fatalf("DeployInference allocated %d B, want < %d B", got, limit)
	}
	sys.Run(10 * sim.Second)
	if f.Served() == 0 {
		t.Fatal("no arrivals served: the cursor was never pulled")
	}
}
