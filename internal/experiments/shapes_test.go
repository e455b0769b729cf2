package experiments

import (
	"strconv"
	"strings"
	"testing"

	"dilu/internal/report"
)

// These tests lock in the headline result shapes at reduced scale so
// regressions in the control loop or calibration surface immediately.
// `dilu-bench -scale 1` produces the full-scale numbers.

func rowFloat(t *testing.T, row []string, col int) float64 {
	t.Helper()
	if row == nil {
		t.Fatal("missing row")
	}
	v, err := strconv.ParseFloat(row[col], 64)
	if err != nil {
		t.Fatalf("cell %q: %v", row[col], err)
	}
	return v
}

func TestToyCoScalingShape(t *testing.T) {
	skipSlowTier(t, "figure2cd")
	rep := Figure2cd(testOpts())
	tb := rep.Table("Figure 2(c,d).")
	if tb == nil {
		t.Fatal("missing table")
	}
	// At RPS=256 the collocated setup (3 GPUs) must clearly out-serve
	// Exclusive (4 GPUs) while keeping most of the training throughput.
	row := tb.FindRow("256.0")
	if row == nil {
		row = tb.FindRow("256")
	}
	exclServed := rowFloat(t, row, 3)
	coServed := rowFloat(t, row, 4)
	trainRatio := rowFloat(t, row, 7)
	if coServed < 1.2*exclServed {
		t.Fatalf("co-scaling inference %v not >1.2× exclusive %v", coServed, exclServed)
	}
	if trainRatio < 0.75 {
		t.Fatalf("training ratio %v collapsed", trainRatio)
	}
}

func TestTable3BurstyShape(t *testing.T) {
	rep := Table3(testOpts())
	tb := rep.Table("Table 3.")
	if tb == nil {
		t.Fatal("missing table")
	}
	// Dilu must use the least GPU time on the bursty trace (the lazy
	// scale-in / no-keep-alive economy the paper claims).
	var dilu, infless, fast float64
	for _, row := range tb.Rows {
		if row[0] != "Bursty" {
			continue
		}
		v, _ := strconv.ParseFloat(row[4], 64)
		switch row[1] {
		case "Dilu":
			dilu = v
		case "INFless+":
			infless = v
		case "FaST-GS+":
			fast = v
		}
	}
	if dilu == 0 || dilu > infless || dilu > fast {
		t.Fatalf("Dilu GPU-seconds %v must be lowest (INFless %v, FaST-GS %v)", dilu, infless, fast)
	}
}

func TestFigure10Case2Shape(t *testing.T) {
	skipSlowTier(t, "figure10")
	rep := Figure10(testOpts())
	var tb *report.Table
	for _, cand := range rep.Tables {
		if strings.Contains(cand.Caption, "GPT2-large") {
			tb = cand
		}
	}
	if tb == nil {
		t.Fatal("missing GPT2 case table")
	}
	// At CV=4 the static baselines must trail Dilu by a wide margin.
	row := tb.FindRow("4")
	diluP95 := rowFloat(t, row, 2)
	mpsr := rowFloat(t, row, 3)
	mpsl := rowFloat(t, row, 4)
	if mpsr < 2*diluP95 {
		t.Fatalf("MPS-r p95 %v should be ≫ Dilu %v", mpsr, diluP95)
	}
	// At full scale MPS-l trails Dilu ~5×; short runs compress the gap,
	// so assert a conservative margin only.
	if mpsl < 1.2*diluP95 {
		t.Fatalf("MPS-l p95 %v should exceed Dilu %v", mpsl, diluP95)
	}
}

func TestEndToEndShape(t *testing.T) {
	skipSlowTier(t, "figure15", "figure16")
	rep := Figure15(testOpts())
	b := rep.Table("Figure 15(b).")
	if b == nil {
		t.Fatal("missing table")
	}
	exclGPUs := rowFloat(t, b.FindRow("Exclusive"), 3)
	diluGPUs := rowFloat(t, b.FindRow("Dilu"), 3)
	if exclGPUs < 1.3*diluGPUs {
		t.Fatalf("Exclusive GPUs %v must be ≥1.3× Dilu %v (paper: 1.5×)", exclGPUs, diluGPUs)
	}
	diluJCT := rowFloat(t, b.FindRow("Dilu"), 1)
	if diluJCT > 2.0 {
		t.Fatalf("Dilu mean normalized JCT %v out of band", diluJCT)
	}

	agg := Figure16(testOpts()).Table("Figure 16.")
	exclRel := rowFloat(t, agg.FindRow("Exclusive"), 2)
	diluRel := rowFloat(t, agg.FindRow("Dilu"), 2)
	if diluRel <= exclRel {
		t.Fatalf("Dilu inference aggregate/GPU %v must beat Exclusive %v", diluRel, exclRel)
	}
}

func TestKernelTraceShape(t *testing.T) {
	rep := Figure13(testOpts())
	a := rep.Table("Figure 13(a).")
	if a == nil {
		t.Fatal("missing case-1 table")
	}
	dilu := rowFloat(t, a.FindRow("Dilu"), 1)
	mpsr := rowFloat(t, a.FindRow("MPS-r"), 1)
	if dilu >= mpsr {
		t.Fatalf("at low load Dilu's inference kernel ratio %v should sit below MPS-r %v", dilu, mpsr)
	}
}

func TestControllerAblationShape(t *testing.T) {
	rep := ControllerAblation(testOpts())
	tb := rep.Table("Controller ablation")
	if tb == nil {
		t.Fatal("missing table")
	}
	def := rowFloat(t, tb.FindRow("stabilized (default)"), 1)
	noPress := rowFloat(t, tb.FindRow("no pressure hold"), 1)
	if noPress <= def {
		t.Fatalf("removing the pressure hold should raise p95: %v vs %v", noPress, def)
	}
}
