package core

import (
	"testing"

	"hybridstore/internal/index"
	"hybridstore/internal/simclock"
	"hybridstore/internal/storage"
	"hybridstore/internal/workload"
)

// warmResultFixture returns a CBLRU manager that has seen 40 queries, the
// first 24 of them in whole result blocks on the SSD, with an L1 of five
// entries: looking those 24 up round-robin is an SSD hit every time
// (promotion evicts an entry whose SSD copy is revalidated), looking one of
// five up again and again a memory hit.
func warmResultFixture(b *testing.B) *fixture {
	cfg := testConfig(PolicyCBLRU)
	cfg.SSDResultBytes = 2 << 20
	f := newFixture(b, cfg)
	for round := 0; round < 2; round++ {
		for q := uint64(1); q <= 40; q++ {
			if _, src := f.m.GetResult(q); src == ResultMiss {
				f.m.PutResult(q, entryOf(q, byte(q), cfg.ResultEntryBytes))
			}
		}
	}
	f.m.FlushWriteBuffer()
	return f
}

// benchGetResult times lookups of next()'s query, all of which must be
// served from want, and fails if a warm lookup allocates: the entry's bytes
// live in a recycled buffer of the cache (DESIGN §17).
func benchGetResult(b *testing.B, want ResultSource, next func(i int) uint64) {
	f := warmResultFixture(b)
	lookup := func(i int) {
		if got, src := f.m.GetResult(next(i)); src != want || got[0] != byte(next(i)) {
			b.Fatalf("lookup %d of query %d: source %v, first byte %#x", i, next(i), src, got[0])
		}
	}
	for i := 0; i < 80; i++ {
		f.m.GetResult(next(i)) // settles which five entries L1 holds
	}
	b.ReportAllocs()
	b.SetBytes(f.m.cfg.ResultEntryBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookup(i)
	}
	b.StopTimer()
	i := b.N
	if allocs := testing.AllocsPerRun(200, func() { lookup(i); i++ }); allocs != 0 {
		b.Fatalf("a warm lookup makes %v allocations, want 0", allocs)
	}
}

func BenchmarkGetResultSSDHit(b *testing.B) {
	benchGetResult(b, ResultFromSSD, func(i int) uint64 { return uint64(i%24 + 1) })
}

func BenchmarkGetResultMemHit(b *testing.B) {
	benchGetResult(b, ResultFromMemory, func(i int) uint64 { return uint64(i%5 + 1) })
}

func BenchmarkCacheManagerListRead(b *testing.B) {
	clock := simclock.New()
	spec := workload.DefaultCollection(200_000)
	spec.VocabSize = 1000
	hdd := storage.NewMemDevice("hdd", index.RequiredBytes(spec)+4096, clock, storage.DefaultMemParams())
	ix, err := index.Build(hdd, spec)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(2 << 20)
	cfg.SSDResultBytes = 2 << 20
	cfg.SSDListBytes = 16 << 20
	ssd := storage.NewMemDevice("ssd", 20<<20, simclock.New(), storage.DefaultMemParams())
	m, err := New(clock, ix, ssd, cfg)
	if err != nil {
		b.Fatal(err)
	}
	zipf := workload.NewZipf(simclock.NewRNG(5), spec.VocabSize, 0.9)
	buf := make([]byte, 8<<10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := workload.TermID(zipf.Next())
		n := min(ix.ListBytes(t), int64(len(buf)))
		if err := m.ReadListRange(t, 0, buf[:n]); err != nil {
			b.Fatal(err)
		}
	}
}
