package core

// Warm-restart persistence for the SSD cache mappings.
//
// The paper's cache manager keeps its SSD mappings (Figs 6–7) in memory; a
// restart would cold-start the L2 cache even though the cached bytes are
// still on flash. SaveMappings serializes the mapping tables — result
// locations, result blocks, list extents, static pins, term frequencies —
// into a metadata region placed right after the cache regions, and Restore
// rebuilds a Manager from them, so a restarted node resumes with a warm
// SSD cache. This mirrors what production flash caches (and the paper's
// "cache file" framing) do.
//
// Layout of the metadata region: a little-endian sequence of the fixed-size
// records below, each written and read whole by encoding/binary —
//
//	mappingHeader
//	u32 count | count × (rbRecord, then rbRecord.Slots × slotRecord)
//	u32 count | count × listRecord
//	u32 count | count × freqRecord
//
// RBs and list extents are serialized static first, then dynamic in LRU→MRU
// order so recency survives the restart; the lists of one extent are
// consecutive and in offset order.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"hybridstore/internal/cache"
	"hybridstore/internal/index"
	"hybridstore/internal/simclock"
	"hybridstore/internal/storage"
	"hybridstore/internal/workload"
)

var mappingMagic = [4]byte{'H', 'S', 'C', 'M'}

// mappingVersion 2 records every list with the extent that holds it.
const mappingVersion = 2

type mappingHeader struct {
	Magic           [4]byte
	Version, Policy uint32
}

type rbRecord struct {
	Num    uint64
	Off    int64
	Static uint8
	Slots  uint16
}

// slotRecord is all zero for an empty slot.
type slotRecord struct {
	Present  uint8
	QID      uint64
	State    uint8
	LoadedAt int64
}

type listRecord struct {
	Term             int32
	ExtOff, ExtBytes int64 // the extent holding the list
	Off, ValidBytes  int64 // the list inside it, as a region offset
	State, Static    uint8
	LoadedAt         int64
}

type freqRecord struct {
	Term  int32
	Count int64
}

// metaOffset returns the device offset of the mapping metadata region.
func (m *Manager) metaOffset() int64 {
	return m.cfg.SSDResultBytes + m.cfg.SSDListBytes
}

// SaveMappings flushes complete result blocks and writes the list write
// buffer's partial block out (a restart must not silently lose admitted
// lists), then serializes the SSD cache mappings into the metadata region
// after the cache regions. It fails when the manager has no SSD or the
// device lacks space.
func (m *Manager) SaveMappings() error {
	if m.ssd == nil {
		return fmt.Errorf("core: no SSD to save mappings to")
	}
	m.FlushWriteBuffer()
	m.flushListBuffer()

	var buf bytes.Buffer
	w := func(v any) { binary.Write(&buf, binary.LittleEndian, v) } //nolint:errcheck
	w(mappingHeader{mappingMagic, mappingVersion, uint32(m.cfg.Policy)})

	rbs := append([]*resultBlock(nil), m.staticRBs...)
	if m.rbLRU != nil {
		m.rbLRU.Ascend(func(e *cache.Entry[*resultBlock]) bool {
			rbs = append(rbs, e.Value)
			return true
		})
	}
	w(uint32(len(rbs)))
	for _, rb := range rbs {
		w(rbRecord{rb.num, rb.off, boolByte(rb.static), uint16(len(rb.slots))})
		for _, loc := range rb.slots {
			var rec slotRecord
			if loc != nil {
				rec = slotRecord{1, loc.qid, uint8(loc.state), int64(loc.loadedAt)}
			}
			w(rec)
		}
	}

	// Static extents in the order of their first pin's term, then dynamic.
	var extents []*listExtent
	lists := len(m.icStatic)
	for _, t := range sortedTermKeys(m.icStatic) {
		if sl := m.icStatic[t]; sl.ext.lists[0] == sl {
			extents = append(extents, sl.ext)
		}
	}
	if m.icLRU != nil {
		m.icLRU.Ascend(func(e *cache.Entry[*listExtent]) bool {
			extents = append(extents, e.Value)
			lists += len(e.Value.lists)
			return true
		})
	}
	w(uint32(lists))
	for _, x := range extents {
		for _, sl := range x.lists {
			w(listRecord{int32(sl.term), x.off, x.bytes, sl.off, sl.validBytes,
				uint8(sl.state), boolByte(x.static), int64(sl.loadedAt)})
		}
	}

	// Term frequencies (EV continuity).
	w(uint32(len(m.termFreq)))
	for _, t := range sortedTermKeys(m.termFreq) {
		w(freqRecord{int32(t), m.termFreq[t]})
	}

	off := m.metaOffset()
	if off+8+int64(buf.Len()) > m.ssd.Size() {
		return fmt.Errorf("core: mappings need %d bytes at %d, device holds %d",
			buf.Len()+8, off, m.ssd.Size())
	}
	head := make([]byte, 8)
	binary.LittleEndian.PutUint64(head, uint64(buf.Len()))
	if err := m.ssdWrite(head, off); err != nil {
		return err
	}
	return m.ssdWrite(buf.Bytes(), off+8)
}

// Restore builds a Manager whose SSD cache state (mappings, recency order,
// term frequencies, static pins) is loaded from the metadata a previous
// SaveMappings left on the device. The configuration must match the one
// the mappings were saved under (same regions, block size and policy).
func Restore(clock *simclock.Clock, ix *index.Index, ssd storage.Device, cfg Config) (*Manager, error) {
	m, err := New(clock, ix, ssd, cfg)
	if err != nil {
		return nil, err
	}
	if ssd == nil {
		return nil, fmt.Errorf("core: Restore needs an SSD device")
	}
	off := m.metaOffset()
	head := make([]byte, 8)
	if err := m.ssdRead(head, off); err != nil {
		return nil, fmt.Errorf("core: reading mapping header: %w", err)
	}
	size := int64(binary.LittleEndian.Uint64(head))
	if size <= 0 || off+8+size > ssd.Size() {
		return nil, fmt.Errorf("core: implausible mapping size %d", size)
	}
	raw := make([]byte, size)
	if err := m.ssdRead(raw, off+8); err != nil {
		return nil, fmt.Errorf("core: reading mappings: %w", err)
	}
	if err := m.loadMappings(raw); err != nil {
		return nil, err
	}
	return m, nil
}

// loadMappings adopts a serialized mapping image, validating every record
// against the regions it claims: NAND is recycled uncleared, so a mapping
// adopted in error would serve another entry's bytes, not zeros.
func (m *Manager) loadMappings(raw []byte) error {
	r := bytes.NewReader(raw)
	read := func(v any) error {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("core: truncated mappings: %w", err)
		}
		return nil
	}

	var head mappingHeader
	if err := read(&head); err != nil || head.Magic != mappingMagic {
		return fmt.Errorf("core: bad mapping magic %q", head.Magic[:])
	}
	if head.Version != mappingVersion {
		return fmt.Errorf("core: unsupported mapping version %d", head.Version)
	}
	if Policy(head.Policy) != m.cfg.Policy {
		return fmt.Errorf("core: mappings saved under policy %v, manager runs %v",
			Policy(head.Policy), m.cfg.Policy)
	}

	var count uint32
	if err := read(&count); err != nil {
		return err
	}
	rbSeen := make(map[uint64]bool)
	for ; count > 0; count-- {
		var rec rbRecord
		if err := read(&rec); err != nil {
			return err
		}
		size := m.lay.rbExtentBytes()
		if rbSeen[rec.Num] || int64(rec.Slots) != size/m.cfg.ResultEntryBytes ||
			m.rcAlloc == nil || !m.rcAlloc.Reserve(rec.Off, size) {
			return fmt.Errorf("core: RB %d repeated, with %d slots or extent [%d,+%d) unreservable",
				rec.Num, rec.Slots, rec.Off, size)
		}
		rbSeen[rec.Num] = true
		rb := &resultBlock{num: rec.Num, off: rec.Off, static: rec.Static != 0,
			slots: make([]*ssdResult, rec.Slots)}
		for s := range rb.slots {
			var slot slotRecord
			if err := read(&slot); err != nil {
				return err
			}
			if slot.Present == 0 {
				continue
			}
			if _, dup := m.resultLoc[slot.QID]; dup {
				return fmt.Errorf("core: query %d mapped twice", slot.QID)
			}
			rb.slots[s] = &ssdResult{qid: slot.QID, rb: rb, slot: s,
				state: entryState(slot.State), loadedAt: time.Duration(slot.LoadedAt)}
			m.resultLoc[slot.QID] = rb.slots[s]
		}
		m.nextRB = max(m.nextRB, rb.num+1)
		if rb.static {
			m.staticRBs = append(m.staticRBs, rb)
		} else {
			m.rbLRU.Put(rb.num, size, rb)
		}
	}

	if err := read(&count); err != nil {
		return err
	}
	var x *listExtent
	for ; count > 0; count-- {
		var rec listRecord
		if err := read(&rec); err != nil {
			return err
		}
		t, static := workload.TermID(rec.Term), rec.Static != 0
		if x == nil || x.off != rec.ExtOff || x.static != static {
			x = &listExtent{off: rec.ExtOff, bytes: rec.ExtBytes, static: static}
			if m.icAlloc == nil || m.lay.checkListExtent(x) != nil || !m.icAlloc.Reserve(x.off, x.bytes) {
				return fmt.Errorf("core: term %d in unreservable extent [%d,+%d)", t, x.off, x.bytes)
			}
			if static {
				m.staticListTaken += x.bytes
			} else {
				m.icLRU.Put(uint64(x.off), x.bytes, x)
			}
		}
		byTerm := m.listsByTerm(static)
		switch {
		case t < 0 || int(t) >= m.ix.NumTerms() || byTerm[t] != nil:
			return fmt.Errorf("core: term %d unknown or mapped twice", t)
		case rec.ExtBytes != x.bytes || rec.Off < x.off+x.fill() || rec.ValidBytes <= 0 ||
			rec.ValidBytes > x.off+x.bytes-rec.Off || rec.ValidBytes > m.ix.ListBytes(t):
			return fmt.Errorf("core: term %d at [%d,+%d) overlaps its neighbour, leaves extent [%d,+%d) or outgrows its list",
				t, rec.Off, rec.ValidBytes, rec.ExtOff, rec.ExtBytes)
		}
		sl := &ssdList{term: t, ext: x, off: rec.Off, validBytes: rec.ValidBytes,
			state: entryState(rec.State), loadedAt: time.Duration(rec.LoadedAt)}
		x.lists = append(x.lists, sl)
		byTerm[t] = sl
	}

	if err := read(&count); err != nil {
		return err
	}
	for ; count > 0; count-- {
		var rec freqRecord
		if err := read(&rec); err != nil {
			return err
		}
		m.termFreq[workload.TermID(rec.Term)] = rec.Count
	}
	return nil
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// sortedTermKeys returns the map's keys in ascending order so
// serialization is deterministic.
func sortedTermKeys[V any](m map[workload.TermID]V) []workload.TermID {
	keys := make([]workload.TermID, 0, len(m))
	for t := range m {
		keys = append(keys, t)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
