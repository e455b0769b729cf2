// Command dilu-profile runs Dilu's multi-factor profiling (§3.2) for
// catalog models and prints the resulting ⟨request, limit⟩ quotas,
// inference batch sizes and search costs, with optional comparison
// against the Table 2 baseline searchers.
//
//	dilu-profile                       # profile every model, both roles
//	dilu-profile -model RoBERTa-large  # one model
//	dilu-profile -compare              # include Traversal/GPUlet/INFless
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dilu/internal/model"
	"dilu/internal/profiler"
	"dilu/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args and prints the profile tables to stdout. It returns
// the process exit code: 0 on success, 2 on bad flags or an unknown
// model name.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dilu-profile", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("model", "", "profile a single model (default: all)")
	compare := fs.Bool("compare", false, "compare search methods (Table 2)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	specs := model.All()
	if *name != "" {
		specs = nil
		for _, s := range model.All() {
			if s.Name == *name {
				specs = append(specs, s)
			}
		}
		if len(specs) == 0 {
			fmt.Fprintf(stderr, "unknown model %q; available: %s\n",
				*name, strings.Join(model.Names(), ", "))
			return 2
		}
	}

	t := report.NewTable("Dilu multi-factor profiles",
		"model", "role", "request", "limit", "IBS", "mem MB", "serving RPS", "trials")
	for _, s := range specs {
		pi := profiler.For(s, profiler.RoleInference)
		t.AddRow(s.Name, "inference", pi.SMReq, pi.SMLim, pi.IBS, pi.MemMB, pi.ServingRPS, pi.Trials)
		pt := profiler.For(s, profiler.RoleTraining)
		t.AddRow(s.Name, "training", pt.SMReq, pt.SMLim, "-", pt.MemMB, "-", pt.Trials)
	}
	fmt.Fprint(stdout, t.String())

	if *compare {
		c := report.NewTable("\nSearch method comparison (trials)",
			"model", "Traversal", "INFless", "GPUlet", "Dilu")
		for _, s := range specs {
			c.AddRow(s.Name,
				profiler.Traversal(s).Trials,
				profiler.INFless(s).Trials,
				profiler.GPUlet(s).Trials,
				profiler.HGSS(s).Trials)
		}
		fmt.Fprint(stdout, c.String())
	}
	return 0
}
