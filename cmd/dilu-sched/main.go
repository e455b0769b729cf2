// Command dilu-sched exercises the cluster schedulers at scale: it
// replays a heterogeneous instance mix (training : LLM inference :
// non-LLM inference = 2:2:6, as in §5.5) through a chosen scheduler on a
// large cluster and reports occupancy, fragmentation, and decision
// latency.
//
//	dilu-sched -scheduler Dilu -instances 3200 -nodes 1000
//	dilu-sched -scheduler Exclusive -instances 800
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dilu/internal/cluster"
	"dilu/internal/experiments"
	"dilu/internal/sched"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, places the mix and prints the report to stdout. It
// returns the process exit code: 0 on success, 2 on bad flags or an
// unknown scheduler name.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dilu-sched", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("scheduler", "Dilu", "Dilu, Exclusive, INFless+-l, INFless+-r, FaST-GS+")
	instances := fs.Int("instances", 3200, "instances to place")
	nodes := fs.Int("nodes", 1000, "cluster nodes (4 GPUs each)")
	gamma := fs.Float64("gamma", 1.5, "oversubscription coefficient (Dilu only)")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	clu := cluster.New(cluster.Config{Nodes: *nodes, GPUsPerNode: 4})
	var s sched.Scheduler
	switch *name {
	case "Dilu":
		s = sched.NewDilu(clu, sched.Options{Gamma: *gamma})
	case "Exclusive":
		s = sched.NewExclusive(clu)
	case "INFless+-l":
		s = sched.NewINFlessL(clu)
	case "INFless+-r":
		s = sched.NewINFlessR(clu)
	case "FaST-GS+":
		s = sched.NewFaSTGS(clu)
	default:
		fmt.Fprintf(stderr, "unknown scheduler %q\n", *name)
		return 2
	}

	start := time.Now()
	placed := experiments.ScheduleBatchWith(s, *instances, *seed)
	elapsed := time.Since(start)

	st := clu.Snapshot()
	fmt.Fprintf(stdout, "scheduler        %s\n", s.Name())
	fmt.Fprintf(stdout, "placed           %d / %d instances in %.2fs (%.4f ms/decision)\n",
		placed, *instances, elapsed.Seconds(),
		elapsed.Seconds()*1e3/float64(max(placed, 1)))
	fmt.Fprintf(stdout, "occupied GPUs    %d / %d\n", st.OccupiedGPUs, st.TotalGPUs)
	fmt.Fprintf(stdout, "SM fragmentation %.1f%%   memory fragmentation %.1f%%\n",
		st.SMFrag*100, st.MemFrag*100)
	fmt.Fprintf(stdout, "mean density     %.2f request quota, %.1f%% memory per active GPU\n",
		st.MeanReq, st.MeanMem*100)
	return 0
}
