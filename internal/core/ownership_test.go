package core

// Tests for who owns a result entry's bytes: the Manager's entry buffers are
// recycled through freeEntries, PutResult copies in, GetResult hands out a
// view. A buffer freed while something still points at it is caught by
// poisoning: every free buffer is overwritten after every step, so a stale
// alias shows as wrong bytes on the next hit, with no production switch.

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"hybridstore/internal/simclock"
)

// poisonFreeEntries overwrites every buffer on the free list.
func poisonFreeEntries(m *Manager) {
	for _, buf := range m.freeEntries {
		for i := range buf {
			buf[i] = 0xDB
		}
	}
}

// checkResultHit fails unless a hit for qid carries an entry entryOf built
// for it with one of the given fills.
func checkResultHit(t *testing.T, step int, qid uint64, got []byte, fills ...byte) {
	t.Helper()
	for _, fill := range fills {
		if bytes.Equal(got, entryOf(qid, fill, int64(len(got)))) {
			return
		}
	}
	t.Fatalf("step %d: hit for query %d returned bytes that are not its entry (starts %#x)", step, qid, got[:4])
}

// TestEntryBuffersRecycledNeverAliased drives 10 000 lookups of each layout
// through eviction, SSD promotion, failed flushes (re-queued once, dropped
// the second time) and TTL expiry, poisoning the free list after every step.
// Every hit must still be the query's own entry and CheckInvariants — free
// buffers whole, unreferenced, listed once, within the bound — must hold.
func TestEntryBuffersRecycledNeverAliased(t *testing.T) {
	for _, policy := range []Policy{PolicyLRU, PolicyCBLRU} {
		for _, scenario := range []string{"fault_free", "write_failures", "ttl"} {
			t.Run(policy.String()+"_"+scenario, func(t *testing.T) {
				cfg := testConfig(policy)
				queries := 40 // the SSD holds them all: evictions revalidate or rewrite
				switch scenario {
				case "ttl":
					cfg.ResultTTL = 40 * time.Millisecond
				case "write_failures":
					// Every failed flush quarantines a block for good, and only
					// queries the SSD cannot all hold keep it written to.
					cfg.SSDResultBytes, queries = 8<<20, 500
				}
				f, fd := newFlakyFixture(t, cfg)
				size := cfg.ResultEntryBytes
				rng := newDetRNG(11)
				for i := 0; i < 10000; i++ {
					// Windows of failing writes long enough for a batch to fail
					// twice, short enough to leave most of the region usable.
					fd.failWrites = scenario == "write_failures" && i >= 1000 && i%1000 < 40
					qid := uint64(rng.next()%queries + 1)
					if got, src := f.m.GetResult(qid); src != ResultMiss {
						checkResultHit(t, i, qid, got, byte(qid*3+1))
					} else if err := f.m.PutResult(qid, entryOf(qid, byte(qid*3+1), size)); err != nil {
						t.Fatal(err)
					}
					f.clock.AdvanceAttr(time.Millisecond, simclock.CompOther)
					poisonFreeEntries(f.m)
					if err := f.m.CheckInvariants(); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
				}
				st := f.m.Stats()
				if st.ResultHitsSSD == 0 || st.ResultHitsMem == 0 {
					t.Fatalf("hits: %d from memory, %d from SSD — a level was not exercised", st.ResultHitsMem, st.ResultHitsSSD)
				}
				if scenario == "write_failures" && (st.SSDWriteErrors == 0 || st.ResultsDropped == 0 ||
					(policy == PolicyCBLRU && st.ResultsRequeued == 0)) {
					t.Fatalf("write errors %d, requeued %d, dropped %d: the failure paths were not exercised",
						st.SSDWriteErrors, st.ResultsRequeued, st.ResultsDropped)
				}
				if scenario == "ttl" && st.ResultsExpired == 0 {
					t.Fatal("nothing expired")
				}
			})
		}
	}
}

// TestPutResultCopiesAndDoesNotRetain: the caller's slice is its own again
// as soon as PutResult returns, and re-putting a resident query only
// refreshes recency — no buffer taken, no bytes copied.
func TestPutResultCopiesAndDoesNotRetain(t *testing.T) {
	f := newFixture(t, testConfig(PolicyCBLRU))
	size := f.m.Config().ResultEntryBytes
	mine := entryOf(1, 7, size)
	if err := f.m.PutResult(1, mine); err != nil {
		t.Fatal(err)
	}
	for i := range mine {
		mine[i] = 0xEE
	}
	got, src := f.m.GetResult(1)
	if src != ResultFromMemory || !bytes.Equal(got, entryOf(1, 7, size)) {
		t.Fatalf("src %v: the cache kept the caller's slice, not a copy", src)
	}
	if &got[0] == &mine[0] {
		t.Fatal("GetResult returned the caller's own slice")
	}

	f.m.freeEntry(make([]byte, size)) // something a re-put could take
	resident := &got[0]
	if err := f.m.PutResult(1, entryOf(1, 9, size)); err != nil {
		t.Fatal(err)
	}
	if len(f.m.freeEntries) != 1 {
		t.Fatalf("re-put of a resident query took a buffer: %d free, want 1", len(f.m.freeEntries))
	}
	if got, _ := f.m.GetResult(1); &got[0] != resident || got[1] != 7 {
		t.Fatal("re-put of a resident query replaced its entry")
	}
}

// TestCheckInvariantsCoversFreeEntries plants each violation clause 7 names.
func TestCheckInvariantsCoversFreeEntries(t *testing.T) {
	plant := func(name, want string, corrupt func(m *Manager)) {
		t.Run(name, func(t *testing.T) {
			f := newFixture(t, testConfig(PolicyCBLRU))
			size := f.m.Config().ResultEntryBytes
			for q := uint64(1); q <= 8; q++ { // 5 in L1, 3 in the write buffer
				f.m.PutResult(q, entryOf(q, byte(q), size))
			}
			if err := f.m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			corrupt(f.m)
			if err := f.m.CheckInvariants(); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("CheckInvariants = %v, want an error containing %q", err, want)
			}
		})
	}
	plant("listed_twice", "held by the free list", func(m *Manager) {
		buf := make([]byte, m.cfg.ResultEntryBytes)
		m.freeEntry(buf)
		m.freeEntry(buf)
	})
	plant("still_in_L1", "held by L1", func(m *Manager) {
		m.freeEntry(m.rc.LRUEntry().Value.data)
	})
	plant("still_in_write_buffer", "held by the write buffer", func(m *Manager) {
		m.freeEntry(m.writeBuf[0].data)
	})
	plant("wrong_length", "free entry buffer of", func(m *Manager) {
		m.freeEntry(make([]byte, m.cfg.ResultEntryBytes-1))
	})
	plant("over_the_bound", "entry buffers in existence", func(m *Manager) {
		for i := 0; i < 5; i++ {
			m.freeEntry(make([]byte, m.cfg.ResultEntryBytes))
		}
	})
}
