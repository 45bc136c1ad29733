// Package hybrid_test holds microbenchmarks of the substrates. The paper's
// experiments are timed by the benchmark in bench/ (its basket workload runs
// every one of them) and printed by `go run ./cmd/hybridbench`.
package hybrid_test

import (
	"testing"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/disksim"
	"hybridstore/internal/engine"
	"hybridstore/internal/experiments"
	"hybridstore/internal/flashsim"
	"hybridstore/internal/index"
	"hybridstore/internal/intersect"
	"hybridstore/internal/simclock"
	"hybridstore/internal/storage"
	"hybridstore/internal/workload"
)

func BenchmarkSSDSequentialBlockWrite(b *testing.B) {
	d := flashsim.New("ssd", simclock.New(), flashsim.DefaultParams(64<<20))
	buf := make([]byte, 128<<10)
	size := d.Size()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	var off int64
	for i := 0; i < b.N; i++ {
		if _, err := d.WriteAt(buf, off); err != nil {
			b.Fatal(err)
		}
		off += int64(len(buf))
		if off+int64(len(buf)) > size {
			off = 0
		}
	}
}

func BenchmarkSSDRandomPageWrite(b *testing.B) {
	d := flashsim.New("ssd", simclock.New(), flashsim.DefaultParams(64<<20))
	rng := simclock.NewRNG(1)
	buf := make([]byte, 2<<10)
	pages := int(d.Size() / int64(len(buf)))
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(rng.Intn(pages)) * int64(len(buf))
		if _, err := d.WriteAt(buf, off); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSSDRandomRead(b *testing.B) {
	d := flashsim.New("ssd", simclock.New(), flashsim.DefaultParams(64<<20))
	buf := make([]byte, 8<<10)
	for off := int64(0); off+int64(len(buf)) <= d.Size(); off += int64(len(buf)) {
		d.WriteAt(buf, off)
	}
	rng := simclock.NewRNG(2)
	chunks := int(d.Size() / int64(len(buf)))
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(rng.Intn(chunks)) * int64(len(buf))
		if _, err := d.ReadAt(buf, off); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHDDRandomRead(b *testing.B) {
	d := disksim.New("hdd", simclock.New(), disksim.DefaultParams(1<<30))
	rng := simclock.NewRNG(3)
	buf := make([]byte, 8<<10)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(rng.Intn(1<<20)) * 512
		if _, err := d.ReadAt(buf, off); err != nil {
			b.Fatal(err)
		}
	}
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
	cfg := core.DefaultConfig(2 << 20)
	cfg.SSDResultBytes = 2 << 20
	cfg.SSDListBytes = 16 << 20
	ssd := storage.NewMemDevice("ssd", 20<<20, simclock.New(), storage.DefaultMemParams())
	m, err := core.New(clock, ix, ssd, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := simclock.NewRNG(4)
	zipf := workload.NewZipf(simclock.NewRNG(5), spec.VocabSize, 0.9)
	buf := make([]byte, 8<<10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := workload.TermID(zipf.Next())
		n := ix.ListBytes(t)
		if n > int64(len(buf)) {
			n = int64(len(buf))
		}
		if err := m.ReadListRange(t, 0, buf[:n]); err != nil {
			b.Fatal(err)
		}
		_ = rng
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
	icache := intersect.New(4<<20, nil)
	conj := engine.NewConjunctive(ix, engine.DefaultConfig(), icache)
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
