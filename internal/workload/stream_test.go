package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"dilu/internal/sim"
)

// pinSum is "count:fnv64a" of a time sequence.
func pinSum(ts []sim.Time) string {
	h := fnv.New64a()
	var b [8]byte
	for _, t := range ts {
		binary.LittleEndian.PutUint64(b[:], uint64(t))
		h.Write(b[:])
	}
	return fmt.Sprintf("%d:%016x", len(ts), h.Sum64())
}

// mixedShape varies a tenant mix's shape by rank.
func mixedShape(i int, rps float64) Arrivals {
	switch i % 3 {
	case 0:
		return Bursty{BaseRPS: rps, Scale: 4}
	case 1:
		return Sporadic{ClusterRPS: rps * 4}
	}
	return Gamma{RPS: rps, CV: 2}
}

// TestStreamDrawOrderPinned pins the exact sequence of every Arrivals
// type at seed 42 over 10 minutes, so a draw-order slip in a cursor fails
// here rather than only in the goldens. The checksums were taken from
// the slice generators the cursors replaced. Both the cursor and its
// Generate drain must match; the cursor must stay exhausted once it
// returns false.
func TestStreamDrawOrderPinned(t *testing.T) {
	const horizon = 10 * sim.Minute
	step := func(at sim.Time) float64 {
		if at < 5*sim.Minute {
			return 10
		}
		return 40
	}
	trace := []sim.Time{0, sim.Second, sim.Second, 7 * sim.Minute, horizon - 1, horizon, horizon, 2 * horizon}
	cases := []struct {
		name string
		arr  Arrivals
		want string
	}{
		{"constant", Constant{RPS: 7}, "4200:258c5e06adfd10a8"},
		{"constant/zero", Constant{}, "0:cbf29ce484222325"},
		{"poisson", Poisson{RPS: 20}, "12068:87a456b176ba5dba"},
		{"poisson/zero", Poisson{}, "0:cbf29ce484222325"},
		{"gamma/cv4", Gamma{RPS: 20, CV: 4}, "11915:3aa7235ec1cad263"},
		{"gamma/cv0.5", Gamma{RPS: 20, CV: 0.5}, "11961:6948e778ea886414"},
		{"gamma/cv0", Gamma{RPS: 20}, "11999:e81961e897fe2913"},
		{"gamma/zero", Gamma{}, "0:cbf29ce484222325"},
		{"ratefunc/step", RateFunc{Label: "step", RPS: step, Peak: 40}, "15168:5a5f668beecc9065"},
		{"ratefunc/zero", RateFunc{}, "0:cbf29ce484222325"},
		{"bursty/windows", Bursty{BaseRPS: 5, Scale: 4, BurstDur: 10 * sim.Second, Quiet: 30 * sim.Second}, "5525:47511ab38b7b8f9f"},
		{"bursty/defaults", Bursty{BaseRPS: 5, Scale: 3}, "4654:017eae90c67a7bbb"},
		{"bursty/zero", Bursty{}, "0:cbf29ce484222325"},
		{"periodic", Periodic{BaseRPS: 10, Amp: 0.5, Period: sim.Minute}, "6053:a57a09deb7be8dac"},
		{"periodic/defaults", Periodic{BaseRPS: 10}, "6041:42d5e6f60859fa53"},
		{"periodic/zero", Periodic{}, "0:cbf29ce484222325"},
		{"sporadic/clusters", Sporadic{ClusterRPS: 8, ClusterDur: 5 * sim.Second, IdleMean: 30 * sim.Second}, "968:e9272a0c6d2af32a"},
		{"sporadic/defaults", Sporadic{ClusterRPS: 8}, "418:dcfed005d587b639"},
		{"sporadic/zero", Sporadic{}, "0:cbf29ce484222325"},
		{"diurnal", Diurnal{TroughRPS: 2, DayRPS: 10, PeakBoost: 1, Period: 2 * sim.Minute}, "4189:3bae5a7273e47834"},
		{"diurnal/defaults", Diurnal{TroughRPS: 2, DayRPS: 10}, "3837:ac642c9311f02dad"},
		{"diurnal/zero", Diurnal{}, "0:cbf29ce484222325"},
		{"pareto", Pareto{RPS: 10, Alpha: 1.5}, "6178:0050f60a90edb02b"},
		{"pareto/clamped", Pareto{RPS: 10}, "12642:5b07eff927a81f62"},
		{"pareto/zero", Pareto{}, "0:cbf29ce484222325"},
		{"tenantmix/poisson", TenantMix{Tenants: 4, TotalRPS: 40, Skew: 1}, "23993:956c2f99509bf4d1"},
		{"tenantmix/shapes", TenantMix{Tenants: 3, TotalRPS: 30, Skew: 0.5, Shape: mixedShape}, "20104:e84d4cbff9797649"},
		{"tenantmix/zero", TenantMix{}, "0:cbf29ce484222325"},
		{"times/cut", Times{Label: "t", T: trace}, "5:1195bd50628d2aeb"},
		{"times/zero", Times{}, "0:cbf29ce484222325"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cur := c.arr.Stream(sim.NewRNG(42), horizon)
			var got []sim.Time
			for {
				at, ok := cur.Next()
				if !ok {
					break
				}
				if at < 0 || at >= horizon {
					t.Fatalf("arrival %s outside [0, %s)", at, horizon)
				}
				if n := len(got); n > 0 && at < got[n-1] {
					t.Fatalf("arrival %d at %s precedes %s", n, at, got[n-1])
				}
				got = append(got, at)
			}
			for i := 0; i < 3; i++ {
				if at, ok := cur.Next(); ok {
					t.Fatalf("exhausted cursor yielded %s", at)
				}
			}
			if s := pinSum(got); s != c.want {
				t.Fatalf("Stream = %s, want %s", s, c.want)
			}
			if s := pinSum(c.arr.Generate(sim.NewRNG(42), horizon)); s != c.want {
				t.Fatalf("Generate = %s, want %s", s, c.want)
			}
		})
	}
}

// TestStreamPullsAllocateNothing: once a renewal or thinning cursor
// exists, pulling arrivals from it costs no allocation, which is what
// keeps a deployment's memory O(1) in its arrival count.
func TestStreamPullsAllocateNothing(t *testing.T) {
	for _, arr := range []Arrivals{Poisson{RPS: 100}, Gamma{RPS: 100, CV: 4}, Periodic{BaseRPS: 100}} {
		cur := arr.Stream(sim.NewRNG(7), 4*sim.Hour)
		allocs := testing.AllocsPerRun(5, func() {
			for i := 0; i < 10_000; i++ {
				if _, ok := cur.Next(); !ok {
					t.Fatalf("%s: cursor exhausted early", arr.Name())
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocations per 10k pulls, want 0", arr.Name(), allocs)
		}
	}
}
