// Token-length sampling for LLM workloads: each request of a
// token-level function carries a prompt length (prefill cost, initial
// KV footprint) and a decode length (output tokens). Samplers are
// deterministic under the seeded RNG like the arrival generators.
package workload

import (
	"fmt"
	"math"

	"dilu/internal/sim"
)

// TokenSampler draws per-request (prompt, decode) token counts.
type TokenSampler interface {
	Name() string
	Sample(rng *sim.RNG) (prompt, decode int)
}

// FixedTokens emits the same lengths for every request — the degenerate
// mix unit tests and closed-form comparisons use.
type FixedTokens struct {
	Prompt, Decode int
}

// Name implements TokenSampler.
func (f FixedTokens) Name() string { return fmt.Sprintf("fixed(%d,%d)", f.Prompt, f.Decode) }

// Sample implements TokenSampler.
func (f FixedTokens) Sample(*sim.RNG) (int, int) { return f.Prompt, f.Decode }

// zipfBuckets is the resolution of ZipfTokenMix: the length range is
// split into this many equal bands, band r weighted (r+1)^−Alpha.
const zipfBuckets = 8

// ZipfTokenMix draws prompt and decode lengths independently from
// Zipf-weighted length bands: the range [Min, Max] splits into eight
// equal bands, band r carries weight (r+1)^−Alpha (most requests are
// short, a heavy tail is long — the production LLM mix shape), and the
// length is uniform within the chosen band.
type ZipfTokenMix struct {
	PromptMin, PromptMax int
	DecodeMin, DecodeMax int
	Alpha                float64 // band skew; <=0 defaults to 1.0
}

// Name implements TokenSampler.
func (z ZipfTokenMix) Name() string {
	return fmt.Sprintf("zipf(p%d-%d,d%d-%d,a%.1f)", z.PromptMin, z.PromptMax, z.DecodeMin, z.DecodeMax, z.alpha())
}

func (z ZipfTokenMix) alpha() float64 {
	if z.Alpha <= 0 {
		return 1.0
	}
	return z.Alpha
}

// bands returns the mix as a sampler holding its eight band weights
// and their sum, which depend only on Alpha.
func (z ZipfTokenMix) bands() zipfBands {
	b := zipfBands{mix: z}
	alpha := z.alpha()
	for r := 0; r < zipfBuckets; r++ {
		w := math.Pow(float64(r+1), -alpha)
		b.weights[r] = w
		b.total += w
	}
	return b
}

// zipfBands is a ZipfTokenMix with its band weights computed once: what
// Prepare returns for the mix. It draws exactly what the mix draws.
type zipfBands struct {
	mix     ZipfTokenMix
	weights [zipfBuckets]float64
	total   float64
}

// Name implements TokenSampler: the mix's own name.
func (b *zipfBands) Name() string { return b.mix.Name() }

// Sample implements TokenSampler: prompt then decode, independent
// draws.
func (b *zipfBands) Sample(rng *sim.RNG) (int, int) {
	p := drawLen(rng, &b.weights, b.total, b.mix.PromptMin, b.mix.PromptMax)
	d := drawLen(rng, &b.weights, b.total, b.mix.DecodeMin, b.mix.DecodeMax)
	return p, d
}

// Prepare returns a sampler that draws exactly what ts draws, with any
// per-mix constants computed once: a ZipfTokenMix becomes a sampler
// holding its band weights, whose Sample then costs no math.Pow. Any
// other sampler is returned unchanged. Callers that sample many
// requests from one mix wrap it once.
func Prepare(ts TokenSampler) TokenSampler {
	if z, ok := ts.(ZipfTokenMix); ok {
		b := z.bands()
		return &b
	}
	return ts
}

// drawLen picks a band by Zipf weight, then a length uniformly inside
// it. Two RNG draws per length, always — the fixed consumption pattern
// keeps downstream streams aligned whatever values come out.
func drawLen(rng *sim.RNG, weights *[zipfBuckets]float64, total float64, min, max int) int {
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	u := rng.Float64() * total
	band := 0
	for ; band < zipfBuckets-1; band++ {
		if u < weights[band] {
			break
		}
		u -= weights[band]
	}
	span := max - min + 1
	lo := min + band*span/zipfBuckets
	hi := min + (band+1)*span/zipfBuckets - 1
	if hi < lo {
		hi = lo
	}
	return lo + rng.Intn(hi-lo+1)
}

// Sample implements TokenSampler: prompt then decode, independent
// draws. It computes the band weights on every call; Prepare the mix to
// compute them once.
func (z ZipfTokenMix) Sample(rng *sim.RNG) (int, int) {
	b := z.bands()
	return b.Sample(rng)
}
