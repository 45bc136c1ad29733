package core

import (
	"testing"
	"testing/quick"
	"time"

	"hybridstore/internal/simclock"
	"hybridstore/internal/workload"
)

func TestInvariantsHoldOnFreshManager(t *testing.T) {
	f := newFixture(t, testConfig(PolicyCBLRU))
	if err := f.m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsHoldUnderChurn(t *testing.T) {
	for _, policy := range allPolicies() {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := testConfig(policy)
			cfg.MemListBytes = 64 << 10
			cfg.SSDListBytes = 1 << 20 // small region: heavy replacement
			f := newFixture(t, cfg)
			size := f.m.Config().ResultEntryBytes
			rng := newDetRNG(7)
			for i := 0; i < 600; i++ {
				switch i % 3 {
				case 0:
					q := uint64(rng.next()%64 + 1)
					f.m.PutResult(q, entryOf(q, byte(q), size))
				case 1:
					f.m.GetResult(uint64(rng.next()%64 + 1))
				case 2:
					term := workload.TermID(rng.next() % 200)
					n := f.ix.ListBytes(term)
					if n > 12<<10 {
						n = 12 << 10
					}
					buf := make([]byte, n)
					f.m.ReadListRange(term, 0, buf)
				}
				if i%100 == 99 {
					if err := f.m.CheckInvariants(); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
				}
			}
			if err := f.m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestInvariantsHoldWithTTLChurn(t *testing.T) {
	cfg := testConfig(PolicyCBLRU)
	cfg.MemListBytes = 64 << 10
	cfg.ResultTTL = 50 * time.Millisecond
	cfg.ListTTL = 50 * time.Millisecond
	f := newFixture(t, cfg)
	size := f.m.Config().ResultEntryBytes
	for i := 0; i < 300; i++ {
		q := uint64(i%40 + 1)
		f.m.PutResult(q, entryOf(q, byte(q), size))
		f.m.GetResult(uint64(i%60 + 1))
		if i%10 == 0 {
			f.clock.AdvanceAttr(20*time.Millisecond, simclock.CompOther)
		}
	}
	if err := f.m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsProperty(t *testing.T) {
	// Property: no operation sequence can break the bookkeeping.
	cfg := testConfig(PolicyCBLRU)
	cfg.MemListBytes = 96 << 10
	cfg.SSDListBytes = 1 << 20
	f := newFixture(t, cfg)
	size := f.m.Config().ResultEntryBytes
	check := func(ops []uint16) bool {
		for _, raw := range ops {
			switch raw % 4 {
			case 0:
				q := uint64(raw%97 + 1)
				f.m.PutResult(q, entryOf(q, byte(raw), size))
			case 1:
				f.m.GetResult(uint64(raw%97 + 1))
			case 2:
				term := workload.TermID(raw % 200)
				n := f.ix.ListBytes(term)
				if lim := int64(raw%16+1) << 10; n > lim {
					n = lim
				}
				buf := make([]byte, n)
				f.m.ReadListRange(term, 0, buf)
			case 3:
				flushResults(f.m)
			}
		}
		return f.m.CheckInvariants() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// detRNG is a tiny deterministic generator for test churn.
type detRNG struct{ state uint64 }

func newDetRNG(seed uint64) *detRNG { return &detRNG{state: seed*2862933555777941757 + 3037000493} }

func (r *detRNG) next() int {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return int(r.state >> 33)
}
