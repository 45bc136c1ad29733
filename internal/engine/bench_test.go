package engine

import (
	"testing"

	"hybridstore/internal/index"
	"hybridstore/internal/intersect"
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

// BenchmarkExecute measures Execute alone, lists served from memory. The
// first four cases share one regime — vocabulary 1 000 and the package
// defaults MaxDFShare 0.10, TerminationFrac 0.15 and 200 k distinct queries
// — at three collection sizes, 200 k, 600 k and 2 M documents, all raw,
// plus 600 k under gvarint, the churn_lru_gv workload's codec. None of them
// is the bench/ workloads' regime: docs=600k/regime=small is, with
// experiments.SmallScale's vocabulary 2 500, MaxDFShare 0.2 and 8 000
// distinct queries and the TerminationFrac 0.35 of experiments'
// engineConfig, copied here because engine cannot import experiments. The
// accumulator's per-document state is the seen bit set plus a chain head
// per 64 documents, so what grows with the collection is mostly the number
// of postings a query scores. ns/posting divides by PostingsScored, which
// counts every decoded posting whatever scoreBlock does with it.
func BenchmarkExecute(b *testing.B) {
	type regime struct {
		vocab           int
		maxDFShare      float64
		terminationFrac float64
		distinctQueries int
	}
	defaults := regime{1000, 0.10, 0.15, 200_000}
	small := regime{2500, 0.2, 0.35, 8000} // experiments.SmallScale and engineConfig
	for _, c := range []struct {
		name  string
		docs  int
		codec index.CodecID
		regime
	}{
		{"docs=200k", 200_000, index.CodecRaw, defaults},
		{"docs=600k", 600_000, index.CodecRaw, defaults},
		{"docs=2M", 2_000_000, index.CodecRaw, defaults},
		{"docs=600k/codec=gvarint", 600_000, index.CodecGVarint, defaults},
		{"docs=600k/regime=small", 600_000, index.CodecRaw, small},
	} {
		var ix *index.Index // built on first use, kept across the b.N trials
		b.Run(c.name, func(b *testing.B) {
			spec := workload.DefaultCollection(c.docs)
			spec.VocabSize = c.vocab
			spec.MaxDFShare = c.maxDFShare
			if ix == nil {
				ix = codecIndex(b, spec, c.codec)
			}
			cfg := DefaultConfig()
			cfg.TerminationFrac = c.terminationFrac
			e := New(ix, cfg)
			logSpec := workload.DefaultQueryLog(spec.VocabSize)
			logSpec.DistinctQueries = c.distinctQueries
			log := workload.NewQueryLog(logSpec)
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

// BenchmarkDecodeResult decodes a result entry as the caches store it: the
// paper's K = 50 documents of 400 bytes (§VI), a 20 016-byte entry whose
// first 416 bytes hold the header and the records. It fails unless a decode
// makes exactly two allocations, the Result and its Docs.
func BenchmarkDecodeResult(b *testing.B) {
	r := &Result{QueryID: 7, Docs: make([]ScoredDoc, 50)}
	for i := range r.Docs {
		r.Docs[i] = ScoredDoc{Doc: uint32(1000 + 3*i), Score: float32(50-i) / 8}
	}
	entry := r.Encode(400)
	decode := func() {
		if got, err := DecodeResult(entry); err != nil || len(got.Docs) != len(r.Docs) {
			b.Fatalf("decoded %d docs, %v", len(got.Docs), err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decode()
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(100, decode); allocs != 2 {
		b.Fatalf("DecodeResult makes %v allocations, want 2", allocs)
	}
}

func BenchmarkConjunctiveExecute(b *testing.B) {
	spec := workload.DefaultCollection(200_000)
	spec.VocabSize = 1000
	conj := NewConjunctive(stampIndex(b, spec), DefaultConfig(), intersect.New(4<<20, nil))
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
