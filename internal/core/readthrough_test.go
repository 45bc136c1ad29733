package core

import (
	"bytes"
	"testing"

	"hybridstore/internal/simclock"
	"hybridstore/internal/storage"
	"hybridstore/internal/workload"
)

// TestFailedReadThroughIsNotCached: the index device serves the query's own
// read and fails the one behind it — the block log's readahead, the entry
// layout's fetch of the rest of the list. The bytes that never arrived must
// not enter L1: once the device heals, the whole list reads back as the
// index has it. (Both layouts used to cache the unfilled tail as zeros and
// serve it from memory.)
func TestFailedReadThroughIsNotCached(t *testing.T) {
	for _, policy := range []Policy{PolicyLRU, PolicyCBLRU} {
		t.Run(policy.String(), func(t *testing.T) {
			clock := simclock.New()
			spec := workload.DefaultCollection(200000)
			spec.VocabSize = 200
			var hdd *flakyDevice
			ix := stampIndex(t, spec, func(size int64) storage.Device {
				hdd = &flakyDevice{inner: storage.NewMemDevice("hdd", size, clock, storage.DefaultMemParams())}
				return hdd
			})
			cfg := testConfig(policy)
			cfg.SSDResultBytes, cfg.SSDListBytes = 0, 0
			m, err := New(clock, ix, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			f := &fixture{clock: clock, ix: ix, m: m, spec: spec}

			// A list longer than one readahead quantum that still fits an L1 entry.
			term, total := workload.TermID(0), int64(0)
			for ; int(term) < spec.VocabSize; term++ {
				if total = ix.ListBytes(term); total > 40<<10 && total <= cfg.MemListBytes/maxL1EntryShare {
					break
				}
			}
			if int(term) == spec.VocabSize {
				t.Fatal("fixture has no list between 40 KiB and half of L1")
			}
			want := f.wantList(t, term, 0, total)

			hdd.readsLeft = 1 // the query's read arrives, the read-through does not
			head := make([]byte, 1000)
			if err := m.ReadListRange(term, 0, head); err != nil {
				t.Fatalf("the query's own read failed: %v", err)
			}
			if !hdd.failReads {
				t.Fatal("no second index read was issued: the read-through path was not exercised")
			}
			if !bytes.Equal(head, want[:1000]) {
				t.Fatal("head of the list differs from the index")
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}

			hdd.failReads = false
			got := make([]byte, total)
			if err := m.ReadListRange(term, 0, got); err != nil {
				t.Fatal(err)
			}
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("byte %d of %d differs from the index (got %#x, want %#x), %d bytes served from memory",
					i, total, got[i], want[i], m.Stats().ListBytesFromMem)
			}
			if pre := m.Stats().ListBytesPrefetched; policy == PolicyCBLRU && pre != 0 {
				t.Fatalf("ListBytesPrefetched = %d after a readahead that delivered nothing", pre)
			}
		})
	}
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}
