// Package hybrid_test holds the end-to-end search micro-benchmark; each
// layer's own micro-benchmarks sit next to it (internal/flashsim,
// internal/disksim, internal/core, internal/engine, internal/index). The
// paper's experiments are timed by the benchmark in bench/ (its basket
// workload runs every one of them) and printed by `go run ./cmd/hybridbench`.
package hybrid_test

import (
	"testing"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/engine"
	"hybridstore/internal/experiments"
	"hybridstore/internal/workload"
)

func BenchmarkEndToEndSearch(b *testing.B) {
	sc := experiments.SmallScale()
	collection := workload.DefaultCollection(sc.BaseDocs)
	collection.VocabSize = sc.Vocab
	collection.MaxDFShare = sc.MaxDFShare
	qlog := workload.DefaultQueryLog(sc.Vocab)
	qlog.DistinctQueries = sc.DistinctQueries
	cacheCfg := core.DefaultConfig(sc.MemBytes)
	cacheCfg.TEV = 2
	cacheCfg.SSDResultBytes = sc.SSDResultBytes
	cacheCfg.SSDListBytes = sc.SSDListBytes
	engCfg := engine.DefaultConfig()
	engCfg.TerminationFrac = 0.35
	sys, err := hybrid.New(hybrid.Config{
		Collection: collection,
		QueryLog:   qlog,
		Cache:      cacheCfg,
		Mode:       hybrid.CacheTwoLevel,
		IndexOn:    hybrid.IndexOnHDD,
		Engine:     engCfg,
		UseModelPU: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.SearchNext(); err != nil {
			b.Fatal(err)
		}
	}
}
