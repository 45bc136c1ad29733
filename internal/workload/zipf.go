// Package workload synthesizes the inputs the paper takes from real data
// sets: a document collection shaped like enwiki, a query log shaped like
// the AOL log, and the per-term utilization-rate model of Fig 3.
//
// All generation is driven by simclock.RNG seeds, so a workload is fully
// determined by its spec — two runs over the same spec replay identical
// queries against identical indexes.
package workload

import (
	"math"
	"sync"

	"hybridstore/internal/simclock"
)

// Zipf samples ranks 0..N-1 with probability proportional to
// 1/(rank+1)^S, the access-frequency law the paper observes for search
// terms (§III: "the access frequency of terms follows Zipf-like
// distribution").
type Zipf struct {
	cdf []float64 // cdf[i] = P(rank <= i); shared, never written
	rng *simclock.RNG
}

// NewZipf builds a sampler over n ranks with exponent s (s > 0). Typical
// search workloads use s in [0.6, 1.1]. Samplers over one (n, s) share one
// read-only CDF table, computed once per process.
func NewZipf(rng *simclock.RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("workload: Zipf needs n > 0")
	}
	if s <= 0 {
		panic("workload: Zipf needs s > 0")
	}
	key := [2]uint64{uint64(n), math.Float64bits(s)}
	zipfMu.Lock()
	table, ok := zipfTables[key]
	if !ok {
		table = sync.OnceValue(func() []float64 {
			cdf := make([]float64, n)
			sum := 0.0
			for i := 0; i < n; i++ {
				sum += 1 / math.Pow(float64(i+1), s)
				cdf[i] = sum
			}
			for i := range cdf {
				cdf[i] /= sum
			}
			cdf[n-1] = 1 // guard against float round-down
			return cdf
		})
		zipfTables[key] = table
	}
	zipfMu.Unlock()
	return &Zipf{cdf: table(), rng: rng}
}

// zipfTables holds one CDF table per (n, bits of s), computed at most once
// per process. A process builds logs over a few specs, so it is unbounded.
var zipfMu sync.Mutex
var zipfTables = make(map[[2]uint64]func() []float64)

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// Next samples one rank in [0, N) using the sampler's own RNG.
func (z *Zipf) Next() int { return z.Sample(z.rng) }

// Sample draws one rank using the provided RNG, leaving the sampler's own
// stream untouched. This lets many deterministic sub-streams share one
// precomputed distribution.
func (z *Zipf) Sample(rng *simclock.RNG) int {
	u := rng.Float64()
	// Binary search for the first cdf entry >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Probability returns the sampling probability of the given rank.
func (z *Zipf) Probability(rank int) float64 {
	if rank < 0 || rank >= len(z.cdf) {
		panic("workload: rank out of range")
	}
	if rank == 0 {
		return z.cdf[0]
	}
	return z.cdf[rank] - z.cdf[rank-1]
}
