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
// request instead of once per length.
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
			rng := sim.NewRNG(42)
			h := fnv.New64a()
			var b [16]byte
			for i := 0; i < n; i++ {
				p, d := c.mix.Sample(rng)
				if p < c.mix.PromptMin || p > c.mix.PromptMax {
					t.Fatalf("sample %d: prompt %d outside [%d, %d]", i, p, c.mix.PromptMin, c.mix.PromptMax)
				}
				if d < c.mix.DecodeMin || d > c.mix.DecodeMax {
					t.Fatalf("sample %d: decode %d outside [%d, %d]", i, d, c.mix.DecodeMin, c.mix.DecodeMax)
				}
				binary.LittleEndian.PutUint64(b[:8], uint64(p))
				binary.LittleEndian.PutUint64(b[8:], uint64(d))
				h.Write(b[:])
			}
			if s := fmt.Sprintf("%016x", h.Sum64()); s != c.want {
				t.Fatalf("Sample checksum = %s, want %s", s, c.want)
			}
		})
	}
}
