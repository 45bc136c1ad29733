package engine

import (
	"testing"

	"hybridstore/internal/index"
	"hybridstore/internal/intersect"
	"hybridstore/internal/simclock"
	"hybridstore/internal/storage"
	"hybridstore/internal/workload"
)

// TestExecuteAllocBudget: once the engine's scratch has grown, a query costs
// 3 host allocations — its Result, the Result's Docs and the TermStats slice.
// (The root-package benchmark this replaces budgeted 4 per op because it drew
// each query from the log inside the timed loop, the query's terms included.)
func TestExecuteAllocBudget(t *testing.T) {
	spec := workload.DefaultCollection(200_000)
	spec.VocabSize = 1000
	e := New(codecIndex(t, spec, index.CodecRaw), DefaultConfig())
	log := workload.NewQueryLog(workload.DefaultQueryLog(spec.VocabSize))
	queries := make([]workload.Query, 500)
	for i := range queries {
		queries[i] = log.Next()
		if _, _, err := e.Execute(queries[i]); err != nil { // grows the scratch
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(len(queries), func() {
		if _, _, err := e.Execute(queries[i%len(queries)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 3 {
		t.Fatalf("Execute: %.0f allocs per query, budget 3", allocs)
	}
}

// BenchmarkExecute measures Execute alone, lists served from memory, at two
// collection sizes on either side of the cache: at 200 k documents the 0.8 MB
// slot array is L2-resident, at 2 M (the -scale full regime no bench/
// workload reaches) its 8 MB is not. ns/posting divides by PostingsScored,
// which counts every decoded posting whatever scoreBlock does with it.
func BenchmarkExecute(b *testing.B) {
	for _, size := range []struct {
		name string
		docs int
	}{{"200k", 200_000}, {"2M", 2_000_000}} {
		var ix *index.Index // built on first use, kept across the b.N trials
		b.Run("docs="+size.name, func(b *testing.B) {
			spec := workload.DefaultCollection(size.docs)
			spec.VocabSize = 1000
			if ix == nil {
				ix = codecIndex(b, spec, index.CodecRaw)
			}
			e := New(ix, DefaultConfig())
			log := workload.NewQueryLog(workload.DefaultQueryLog(spec.VocabSize))
			var postings int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, stats, err := e.Execute(log.Next())
				if err != nil {
					b.Fatal(err)
				}
				postings += stats.PostingsScored
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(postings), "ns/posting")
		})
	}
}

func BenchmarkConjunctiveExecute(b *testing.B) {
	spec := workload.DefaultCollection(200_000)
	spec.VocabSize = 1000
	dev := storage.NewMemDevice("idx", index.RequiredBytes(spec)+4096,
		simclock.New(), storage.DefaultMemParams())
	ix, err := index.Build(dev, spec)
	if err != nil {
		b.Fatal(err)
	}
	conj := NewConjunctive(ix, DefaultConfig(), intersect.New(4<<20, nil))
	log := workload.NewQueryLog(workload.DefaultQueryLog(spec.VocabSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := log.Next()
		if len(q.Terms) < 2 {
			continue
		}
		if _, _, err := conj.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}
