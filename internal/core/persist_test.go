package core

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"hybridstore/internal/simclock"
	"hybridstore/internal/workload"
)

// populate pushes results and lists through the manager so both SSD
// regions hold data.
func populate(t testing.TB, f *fixture) {
	t.Helper()
	size := f.m.Config().ResultEntryBytes
	for q := uint64(1); q <= 25; q++ {
		f.m.PutResult(q, entryOf(q, byte(q), size))
	}
	f.m.FlushWriteBuffer()
	for i := 0; i < 25; i++ {
		f.readSome(t, workload.TermID(30+i), 12<<10)
	}
}

// restoreFixture builds a second manager over the SAME devices via
// Restore.
func (f *fixture) restore(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m2, err := Restore(f.clock, f.ix, f.ssd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m2
}

func TestSaveRestoreRoundTrip(t *testing.T) {
	cfg := testConfig(PolicyCBLRU)
	cfg.MemListBytes = 64 << 10 // force list flushes to SSD
	f := newFixture(t, cfg)
	populate(t, f)
	if err := f.m.SaveMappings(); err != nil {
		t.Fatal(err)
	}

	m2 := f.restore(t, cfg)

	// Every result the old manager had on SSD must be servable by the new
	// one, with identical bytes — without touching L1 (which is empty).
	restored := 0
	for q := uint64(1); q <= 25; q++ {
		if _, ok := f.m.resultLoc[q]; !ok {
			continue
		}
		data, src := m2.GetResult(q)
		if src != ResultFromSSD {
			t.Fatalf("query %d: src=%v after restore", q, src)
		}
		if data[0] != byte(q) {
			t.Fatalf("query %d: wrong content after restore", q)
		}
		restored++
	}
	if restored == 0 {
		t.Fatal("no results were on SSD; fixture too small")
	}

	// SSD-cached lists serve without HDD bytes.
	served := 0
	for i := 0; i < 25; i++ {
		term := workload.TermID(30 + i)
		sl := m2.ssdListFor(term)
		if sl == nil {
			continue
		}
		buf := make([]byte, sl.validBytes)
		hddBefore := m2.Stats().ListBytesFromHDD
		if err := m2.ReadListRange(term, 0, buf); err != nil {
			t.Fatal(err)
		}
		if m2.Stats().ListBytesFromHDD != hddBefore {
			t.Fatalf("term %d read HDD after restore", term)
		}
		want := make([]byte, sl.validBytes)
		f.ix.ReadListRange(term, 0, want)
		if !bytes.Equal(buf, want) {
			t.Fatalf("term %d bytes wrong after restore", term)
		}
		served++
	}
	if served == 0 {
		t.Fatal("no lists restored")
	}
}

func TestRestorePreservesTermFrequencies(t *testing.T) {
	cfg := testConfig(PolicyCBLRU)
	f := newFixture(t, cfg)
	f.readSome(t, 7, 4<<10)
	f.readSome(t, 7, 4<<10)
	f.readSome(t, 9, 4<<10)
	if err := f.m.SaveMappings(); err != nil {
		t.Fatal(err)
	}
	m2 := f.restore(t, cfg)
	if m2.TermFrequency(7) != 2 || m2.TermFrequency(9) != 1 {
		t.Fatalf("frequencies lost: %d/%d", m2.TermFrequency(7), m2.TermFrequency(9))
	}
}

func TestRestorePreservesStaticPins(t *testing.T) {
	cfg := testConfig(PolicyCBSLRU)
	f := newFixture(t, cfg)
	size := f.m.Config().ResultEntryBytes
	if !f.m.PinResult(500, entryOf(500, 0x77, size)) || !f.m.PinList(5) {
		t.Fatal("pinning failed")
	}
	if err := f.m.SaveMappings(); err != nil {
		t.Fatal(err)
	}
	m2 := f.restore(t, cfg)
	if _, src := m2.GetResult(500); src != ResultFromSSD {
		t.Fatal("pinned result lost")
	}
	if len(m2.StaticPinnedLists()) != 1 {
		t.Fatal("pinned list lost")
	}
	if sl := m2.ssdListFor(5); sl == nil || !sl.ext.static {
		t.Fatal("restored pin not static")
	}
}

func TestRestoreRejectsPolicyMismatch(t *testing.T) {
	cfgA := testConfig(PolicyCBLRU)
	f := newFixture(t, cfgA)
	populate(t, f)
	if err := f.m.SaveMappings(); err != nil {
		t.Fatal(err)
	}
	cfgB := testConfig(PolicyLRU)
	if _, err := Restore(f.clock, f.ix, f.ssd, cfgB); err == nil {
		t.Fatal("policy mismatch accepted")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	cfg := testConfig(PolicyCBLRU)
	f := newFixture(t, cfg)
	// No SaveMappings ever ran: the metadata region is zeros.
	if _, err := Restore(f.clock, f.ix, f.ssd, cfg); err == nil {
		t.Fatal("restore from a blank device succeeded")
	}
}

func TestSaveWithoutSSDFails(t *testing.T) {
	cfg := testConfig(PolicyCBLRU)
	cfg.SSDResultBytes, cfg.SSDListBytes = 0, 0
	f := newFixture(t, cfg)
	if err := f.m.SaveMappings(); err == nil {
		t.Fatal("SaveMappings without SSD succeeded")
	}
}

func TestRestoredRecencySurvives(t *testing.T) {
	// Entries restored in LRU order must evict in the same order as the
	// original would: the oldest dynamic list entry goes first.
	cfg := testConfig(PolicyCBLRU)
	cfg.MemListBytes = 64 << 10
	f := newFixture(t, cfg)
	populate(t, f)
	if err := f.m.SaveMappings(); err != nil {
		t.Fatal(err)
	}
	m2 := f.restore(t, cfg)
	origLRU := f.m.icLRU.LRUEntry()
	newLRU := m2.icLRU.LRUEntry()
	if origLRU == nil || newLRU == nil {
		t.Skip("no dynamic list entries to compare")
	}
	if origLRU.Key != newLRU.Key {
		t.Fatalf("LRU order lost: %d vs %d", origLRU.Key, newLRU.Key)
	}
}

// mappingImage serializes a mapping image holding no RBs, the given list
// records and no frequencies.
func mappingImage(version uint32, policy Policy, lists ...listRecord) []byte {
	var buf bytes.Buffer
	w := func(v any) { binary.Write(&buf, binary.LittleEndian, v) } //nolint:errcheck
	w(mappingHeader{mappingMagic, version, uint32(policy)})
	w(uint32(0))
	w(uint32(len(lists)))
	for _, rec := range lists {
		w(rec)
	}
	w(uint32(0))
	return buf.Bytes()
}

// TestLoadMappingsValidatesLists: Restore adopts a list only inside a
// reservable extent, clear of its neighbours and mapped once — NAND is
// recycled uncleared, so anything else would serve another list's bytes —
// and every refusal names the term. A v1 image is refused by version.
func TestLoadMappingsValidatesLists(t *testing.T) {
	cfg := testConfig(PolicyCBLRU)
	bb := cfg.BlockBytes
	list := func(term int32, extOff, extBytes, off, valid int64) listRecord {
		return listRecord{Term: term, ExtOff: extOff, ExtBytes: extBytes, Off: off, ValidBytes: valid}
	}
	good := list(7, bb, bb, bb, 2<<10)
	cases := []struct {
		name  string
		lists []listRecord
		want  string // "" = accepted
	}{
		{"packed pair", []listRecord{good, list(8, bb, bb, bb+2<<10, 2<<10)}, ""},
		{"before its extent", []listRecord{list(7, bb, bb, bb-1, 2<<10)}, "term 7"},
		{"past its extent", []listRecord{list(7, bb, bb, 2*bb-1<<10, 2<<10)}, "term 7"},
		{"overlapping its neighbour", []listRecord{good, list(8, bb, bb, bb+1<<10, 2<<10)}, "term 8"},
		{"mapped twice", []listRecord{good, list(7, bb, bb, bb+2<<10, 2<<10)}, "term 7"},
		{"no bytes", []listRecord{list(7, bb, bb, bb, 0)}, "term 7"},
		{"longer than the list", []listRecord{list(199, bb, bb, bb, 2<<10)}, "term 199"},
		{"unknown term", []listRecord{list(200, bb, bb, bb, 1<<10)}, "term 200"},
		{"unaligned extent", []listRecord{list(7, bb+512, bb, bb+512, 1<<10)}, "term 7"},
		{"extent outside the region", []listRecord{list(7, cfg.SSDListBytes, bb, cfg.SSDListBytes, 1<<10)}, "term 7"},
		{"extents overlapping", []listRecord{good, list(8, 0, 2*bb, 0, 1<<10)}, "term 8"},
		{"extent size changing", []listRecord{good, list(8, bb, 2*bb, bb+2<<10, 1<<10)}, "term 8"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newFixture(t, cfg).m
			err := m.loadMappings(mappingImage(mappingVersion, cfg.Policy, tc.lists...))
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("refused: %v", err)
			case tc.want == "":
				if err := m.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			case err == nil || !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %v, want one naming %q", err, tc.want)
			}
		})
	}
	m := newFixture(t, cfg).m
	if err := m.loadMappings(mappingImage(1, cfg.Policy, good)); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("v1 image: error %v, want a refusal by version", err)
	}
}

// FuzzLoadMappings: whatever bytes the metadata region holds, loadMappings
// never panics, and an image it accepts leaves a manager that passes
// CheckInvariants.
func FuzzLoadMappings(f *testing.F) {
	for _, policy := range []Policy{PolicyLRU, PolicyCBSLRU} {
		cfg := testConfig(policy)
		cfg.MemListBytes = 64 << 10
		fx := newFixture(f, cfg)
		fx.m.PinList(5)
		fx.m.PinList(40)
		fx.m.PinResult(500, entryOf(500, 0x77, cfg.ResultEntryBytes))
		populate(f, fx)
		if err := fx.m.SaveMappings(); err != nil {
			f.Fatal(err)
		}
		head := make([]byte, 8)
		fx.ssd.ReadAt(head, fx.m.metaOffset())
		raw := make([]byte, binary.LittleEndian.Uint64(head))
		fx.ssd.ReadAt(raw, fx.m.metaOffset()+8)
		f.Add(raw)
	}
	f.Add(mappingImage(mappingVersion, PolicyCBSLRU, listRecord{Term: 7, ExtBytes: 128 << 10, ValidBytes: 1 << 10, Static: 1}))
	cfg := testConfig(PolicyCBSLRU)
	fx := newFixture(f, cfg) // loadMappings touches neither device
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := New(simclock.New(), fx.ix, fx.ssd, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.loadMappings(raw) == nil {
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("accepted image breaks an invariant: %v", err)
			}
		}
	})
}
