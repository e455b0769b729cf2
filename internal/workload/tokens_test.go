package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"dilu/internal/sim"
)

// TestTokenMixDrawOrderPinned pins the first 10,000 (prompt, decode)
// samples of ZipfTokenMix at seed 42, so a change to the band weights or
// the draw order fails here rather than only in the goldens. The
// checksums were taken before the band weights were computed once per
// request instead of once per length. The mix's Prepare'd sampler must
// draw the same samples under the same name.
func TestTokenMixDrawOrderPinned(t *testing.T) {
	const n = 10_000
	cases := []struct {
		name string
		mix  ZipfTokenMix
		want string
	}{
		{"llm_decode", ZipfTokenMix{PromptMin: 16, PromptMax: 512, DecodeMin: 8, DecodeMax: 256, Alpha: 1.1}, "e1f724a414119660"},
		{"alpha0", ZipfTokenMix{PromptMin: 16, PromptMax: 512, DecodeMin: 8, DecodeMax: 256}, "4104fd61be3652c7"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Run("plain", func(t *testing.T) { checkDrawOrder(t, c.mix, c.mix, n, c.want) })
			t.Run("prepared", func(t *testing.T) {
				ts := Prepare(c.mix)
				if ts.Name() != c.mix.Name() {
					t.Fatalf("Name() = %q, want %q", ts.Name(), c.mix.Name())
				}
				checkDrawOrder(t, ts, c.mix, n, c.want)
			})
		})
	}
}

func checkDrawOrder(t *testing.T, ts TokenSampler, mix ZipfTokenMix, n int, want string) {
	t.Helper()
	rng := sim.NewRNG(42)
	h := fnv.New64a()
	var b [16]byte
	for i := 0; i < n; i++ {
		p, d := ts.Sample(rng)
		if p < mix.PromptMin || p > mix.PromptMax {
			t.Fatalf("sample %d: prompt %d outside [%d, %d]", i, p, mix.PromptMin, mix.PromptMax)
		}
		if d < mix.DecodeMin || d > mix.DecodeMax {
			t.Fatalf("sample %d: decode %d outside [%d, %d]", i, d, mix.DecodeMin, mix.DecodeMax)
		}
		binary.LittleEndian.PutUint64(b[:8], uint64(p))
		binary.LittleEndian.PutUint64(b[8:], uint64(d))
		h.Write(b[:])
	}
	if s := fmt.Sprintf("%016x", h.Sum64()); s != want {
		t.Fatalf("Sample checksum = %s, want %s", s, want)
	}
}

// Prepare leaves every sampler but a ZipfTokenMix as it is.
func TestPrepareKeepsOtherSamplers(t *testing.T) {
	if Prepare(nil) != nil {
		t.Fatal("Prepare(nil) is not nil")
	}
	f := FixedTokens{Prompt: 3, Decode: 5}
	if got := Prepare(f); got != TokenSampler(f) {
		t.Fatalf("Prepare(%v) = %v", f, got)
	}
}
