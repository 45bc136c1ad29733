package core_test

// The L1 prefix free lists seen from a whole system: list bytes reach the
// engine through prefixes the Manager recycles, so a buffer freed while
// something still holds it would change what a query ranks.

import (
	"reflect"
	"testing"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/engine"
	"hybridstore/internal/storage"
	"hybridstore/internal/workload"
)

// poolConfig is a two-level system small enough to check invariants after
// every query, with L1 under constant eviction pressure.
func poolConfig(policy core.Policy, mode hybrid.CacheMode) hybrid.Config {
	collection := workload.DefaultCollection(300_000)
	collection.VocabSize = 2000
	collection.MaxDFShare = 0.2
	qlog := workload.DefaultQueryLog(collection.VocabSize)
	qlog.DistinctQueries = 5000
	cache := core.DefaultConfig(512 << 10)
	cache.Policy = policy
	cache.TEV = 2
	cache.SSDResultBytes = 1 << 20
	cache.SSDListBytes = 4 << 20
	eng := engine.DefaultConfig()
	eng.TerminationFrac = 0.35
	return hybrid.Config{
		Collection: collection,
		QueryLog:   qlog,
		Cache:      cache,
		Mode:       mode,
		IndexOn:    hybrid.IndexOnHDD,
		Engine:     eng,
		UseModelPU: true,
	}
}

// TestPrefixBuffersRecycledNeverAliased runs each layout, CBSLRU's pins and
// an injected-fault SSD query by query beside an uncached system, poisoning
// every free prefix buffer after each query. Every result must equal the
// uncached one and CheckInvariants — each prefix buffer held once, the free
// lists within their bound — must hold throughout.
func TestPrefixBuffersRecycledNeverAliased(t *testing.T) {
	for _, v := range []struct {
		name   string
		policy core.Policy
		faults bool
	}{
		{"CBLRU", core.PolicyCBLRU, false},
		{"LRU", core.PolicyLRU, false},
		{"CBSLRU", core.PolicyCBSLRU, false},
		{"CBLRU_faults", core.PolicyCBLRU, true},
	} {
		t.Run(v.name, func(t *testing.T) {
			cfg := poolConfig(v.policy, hybrid.CacheTwoLevel)
			if v.faults {
				cfg.CacheFaults = storage.FaultSpec{
					Seed:       7,
					Read:       0.02,
					Write:      0.02,
					Trim:       0.02,
					StickyProb: 0.25,
				}
			}
			sys, err := hybrid.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := hybrid.New(poolConfig(v.policy, hybrid.CacheNone))
			if err != nil {
				t.Fatal(err)
			}
			if v.policy == core.PolicyCBSLRU {
				if ws, err := sys.WarmupStatic(2000); err != nil || ws.PinnedLists == 0 {
					t.Fatalf("warm-up pinned %d lists: %v", ws.PinnedLists, err)
				}
			}
			poisoned := 0
			for i := 0; i < 600; i++ {
				got, _, err := sys.SearchNext()
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := oracle.SearchNext()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d (id %d): result differs from the uncached system's", i, want.QueryID)
				}
				poisoned += core.PoisonFreePrefixes(sys.Manager)
				if err := sys.Manager.CheckInvariants(); err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
			}
			st := sys.Manager.Stats()
			if poisoned == 0 || st.L1ListEvictions == 0 {
				t.Fatalf("%d L1 evictions, %d free buffers poisoned: recycling was not exercised", st.L1ListEvictions, poisoned)
			}
			if v.faults && st.SSDReadErrors+st.SSDWriteErrors == 0 {
				t.Fatal("fault injection produced no device errors")
			}
		})
	}
}
