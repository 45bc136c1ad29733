package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"hybridstore/internal/cache"
	"hybridstore/internal/simclock"
)

// TestBufferedEntryBothRegions: a result waiting for its result block and a
// sub-block list prefix waiting for its block are the same kind of entry.
// Each is found by lookup, served from memory with no device read, expires
// by TTL without a device write, and after its flush sits in exactly one
// extent; CheckInvariants holds after every step.
func TestBufferedEntryBothRegions(t *testing.T) {
	const listBytes = 2 << 10
	kinds := []struct {
		name   string
		region func(m *Manager) *region
		key    uint64
		// buffer puts key's entry in the region's write buffer.
		buffer func(t *testing.T, f *fixture)
		// read looks key up through the serving path and reports whether
		// memory answered and how many copies of the kind have expired.
		read  func(t *testing.T, f *fixture) (fromMem bool, expired int64)
		flush func(t *testing.T, f *fixture)
	}{
		{
			name:   "result",
			region: func(m *Manager) *region { return &m.results },
			key:    1,
			buffer: func(t *testing.T, f *fixture) { putEntries(t, f, 1, 5) }, // L1 holds 4
			read: func(t *testing.T, f *fixture) (bool, int64) {
				data, src := f.m.GetResult(1)
				s := f.m.Stats()
				fromMem := src == ResultFromMemory && data[0] == 1 && s.ResultHitsMem == 1 && s.ResultHitsSSD == 0
				return fromMem, s.ResultsExpired
			},
			flush: func(t *testing.T, f *fixture) { putEntries(t, f, 6, 8) }, // evicts 2–4: a full RB
		},
		{
			name:   "list prefix",
			region: func(m *Manager) *region { return &m.lists },
			key:    7,
			buffer: func(t *testing.T, f *fixture) { f.evict(t, 7, listBytes) },
			read: func(t *testing.T, f *fixture) (bool, int64) {
				got := make([]byte, listBytes)
				if err := f.m.ReadListRange(7, 0, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, f.wantList(t, 7, 0, listBytes)) {
					t.Fatal("term 7 read back wrong bytes")
				}
				s := f.m.Stats()
				fromMem := s.ListBytesFromMem == listBytes && s.ListBytesFromSSD+s.ListBytesFromHDD == 0
				return fromMem, s.ListsExpired
			},
			flush: func(t *testing.T, f *fixture) { f.m.flush(&f.m.lists, nil) },
		},
	}
	cfg := packerConfig(PolicyCBLRU)
	cfg.ResultTTL, cfg.ListTTL = time.Second, time.Second
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			buffered := func(f *fixture) *ssdEntry {
				t.Helper()
				k.buffer(t, f)
				f.checkInvariants(t)
				e := k.region(f.m).lookup(k.key)
				if e == nil || e.ext != nil || e.data == nil {
					t.Fatalf("lookup = %+v, want the buffered entry", e)
				}
				return e
			}

			f, dev := newPackerFixture(t, cfg)
			e := buffered(f)
			if fromMem, _ := k.read(t, f); !fromMem || dev.reads != 0 {
				t.Fatalf("served from memory %v with %d device reads: want memory and none", fromMem, dev.reads)
			}
			f.checkInvariants(t)
			k.flush(t, f)
			f.checkInvariants(t)
			r := k.region(f.m)
			if e.ext == nil || r.lookup(k.key) != e || len(r.buf) != 0 {
				t.Fatalf("after the flush: placed %v, mapped %v, %d still buffered", e.ext != nil, r.lookup(k.key) == e, len(r.buf))
			}
			holders := 0
			r.lru.Ascend(func(x *cache.Entry[*extent]) bool {
				for _, o := range x.Value.entries {
					if o.key == k.key {
						holders++
					}
				}
				return true
			})
			if holders != 1 {
				t.Fatalf("key %d sits in %d extents, want 1", k.key, holders)
			}

			f, dev = newPackerFixture(t, cfg)
			buffered(f)
			f.clock.AdvanceAttr(2*time.Second, simclock.CompOther)
			if fromMem, expired := k.read(t, f); fromMem || expired != 1 {
				t.Fatalf("expired copy: served from memory %v, %d expired: want a miss and 1", fromMem, expired)
			}
			f.checkInvariants(t)
			if r := k.region(f.m); r.lookup(k.key) != nil || len(r.buf) != 0 || r.bufBytes != 0 || len(dev.writes) != 0 {
				t.Fatalf("expired copy still mapped %v, %d buffered (%d bytes), %d device writes: want none",
					r.lookup(k.key) != nil, len(r.buf), r.bufBytes, len(dev.writes))
			}
		})
	}
}

// TestCheckInvariantsCoversWriteBuffers plants each write-buffer violation
// checkRegion names, in both regions, beside an extent already on the SSD.
func TestCheckInvariantsCoversWriteBuffers(t *testing.T) {
	regions := []struct {
		name  string
		setup func(t *testing.T, f *fixture) *region
	}{
		{"results", func(t *testing.T, f *fixture) *region {
			putEntries(t, f, 1, 9) // 1–4 in an RB, 5 buffered, 6–9 in L1
			return &f.m.results
		}},
		{"lists", func(t *testing.T, f *fixture) *region {
			f.evict(t, 7, 2<<10)
			f.m.flush(&f.m.lists, nil)
			f.evict(t, 8, 2<<10)
			return &f.m.lists
		}},
	}
	plants := []struct {
		name, want string
		corrupt    func(r *region)
	}{
		{"missing_from_dyn", "not mapped back", func(r *region) { delete(r.dyn, r.buf[0].key) }},
		{"also_in_an_extent", "placed", func(r *region) {
			x, e := r.lru.LRUEntry().Value, r.buf[0]
			e.ext, e.off = x, x.off+x.fill()
			x.entries = append(x.entries, e)
		}},
		{"bytes_off_by_one", "write buffer holds", func(r *region) { r.bufBytes++ }},
	}
	for _, reg := range regions {
		for _, p := range plants {
			t.Run(reg.name+"/"+p.name, func(t *testing.T) {
				f, _ := newPackerFixture(t, packerConfig(PolicyCBLRU))
				r := reg.setup(t, f)
				if len(r.buf) != 1 || r.lru.Len() != 1 {
					t.Fatalf("%d buffered, %d extents: want 1 and 1", len(r.buf), r.lru.Len())
				}
				f.checkInvariants(t)
				p.corrupt(r)
				if err := f.m.CheckInvariants(); err == nil || !strings.Contains(err.Error(), p.want) {
					t.Fatalf("CheckInvariants = %v, want an error containing %q", err, p.want)
				}
			})
		}
	}
}
