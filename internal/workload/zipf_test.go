package workload

import (
	"math"
	"sync"
	"testing"

	"hybridstore/internal/simclock"
)

// referenceCDF is the CDF loop NewZipf ran per call before tables were
// shared; the shared table must equal it bit for bit.
func referenceCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1
	return cdf
}

// sameTable reports whether two samplers read one backing array.
func sameTable(a, b *Zipf) bool { return &a.cdf[0] == &b.cdf[0] }

// TestQueryLogsShareZipfTables: two logs over one spec read the same query
// and term tables instead of recomputing them.
func TestQueryLogsShareZipfTables(t *testing.T) {
	spec := DefaultQueryLog(1200)
	spec.DistinctQueries = 3000
	a, b := NewQueryLog(spec), NewQueryLog(spec)
	if !sameTable(a.queryZipf, b.queryZipf) || !sameTable(a.termZipf, b.termZipf) {
		t.Fatal("two logs over one spec hold distinct CDF tables")
	}
	// The tables are shared, the streams are not.
	if a.queryZipf.rng == b.queryZipf.rng {
		t.Fatal("two logs share one RNG")
	}
	for i := 0; i < 100; i++ {
		if qa, qb := a.Next(), b.Next(); qa.ID != qb.ID {
			t.Fatalf("query %d: logs over one spec diverge (%d vs %d)", i, qa.ID, qb.ID)
		}
	}
}

// TestZipfTableBitIdentical: the shared table holds exactly the values the
// per-call loop computed, for every (n, s) the evaluation uses and a few
// edge shapes.
func TestZipfTableBitIdentical(t *testing.T) {
	for _, c := range []struct {
		n int
		s float64
	}{{1, 1}, {2, 0.5}, {1200, 0.9}, {2500, 0.9}, {3000, 0.85}, {4000, 0.8}, {8000, 0.85}, {20000, 0.85}, {200000, 0.85}} {
		got := NewZipf(simclock.NewRNG(1), c.n, c.s).cdf
		want := referenceCDF(c.n, c.s)
		if len(got) != len(want) {
			t.Fatalf("n=%d s=%v: %d ranks, want %d", c.n, c.s, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d s=%v: cdf[%d] = %v, want %v", c.n, c.s, i, got[i], want[i])
			}
		}
	}
}

// TestZipfTablePerShape: a different n or s gets its own table.
func TestZipfTablePerShape(t *testing.T) {
	rng := simclock.NewRNG(1)
	base := NewZipf(rng, 500, 0.9)
	if !sameTable(base, NewZipf(rng, 500, 0.9)) {
		t.Fatal("one (n, s) built two tables")
	}
	if sameTable(base, NewZipf(rng, 501, 0.9)) {
		t.Fatal("n=500 and n=501 share a table")
	}
	other := NewZipf(rng, 500, math.Nextafter(0.9, 1))
	if sameTable(base, other) {
		t.Fatal("s=0.9 and its next float share a table")
	}
	if base.Probability(0) == other.Probability(0) {
		t.Fatal("distinct exponents sample alike")
	}
}

// TestZipfTableConcurrent: samplers built concurrently over one fresh shape
// share one table, and over distinct shapes get their own (run under -race).
func TestZipfTableConcurrent(t *testing.T) {
	const workers = 16
	zs := make([]*Zipf, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			zs[w] = NewZipf(simclock.NewRNG(uint64(w)), 7777+w%2, 0.77)
			zs[w].Next()
		}(w)
	}
	wg.Wait()
	for w := 2; w < workers; w++ {
		if !sameTable(zs[w], zs[w%2]) {
			t.Fatalf("worker %d holds its own table for n=%d", w, zs[w].N())
		}
	}
	if sameTable(zs[0], zs[1]) {
		t.Fatal("n=7777 and n=7778 share a table")
	}
}

var logSink *QueryLog

// BenchmarkNewQueryLog times building a log over the small-scale spec, the
// cost every hybrid.New, WarmupStatic and serving shard pays.
func BenchmarkNewQueryLog(b *testing.B) {
	spec := DefaultQueryLog(2500)
	spec.DistinctQueries = 8000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		logSink = NewQueryLog(spec)
	}
}
