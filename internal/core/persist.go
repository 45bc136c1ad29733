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
// Layout of the metadata region (little-endian):
//
//	magic "HSCM" | version u32 | policy u32
//	rbCount u32 | rb × { num u64, off i64, static u8, slots u16,
//	                     slots × { present u8, qid u64, state u8, loadedAt i64 } }
//	listCount u32 | list × { term i32, off i64, blockBytes i64,
//	                         validBytes i64, state u8, static u8, loadedAt i64 }
//	freqCount u32 | freq × { term i32, count i64 }
//
// RBs and list entries are serialized in LRU→MRU order so recency
// survives the restart.

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

const mappingVersion = 1

// metaOffset returns the device offset of the mapping metadata region.
func (m *Manager) metaOffset() int64 {
	return m.cfg.SSDResultBytes + m.cfg.SSDListBytes
}

// SaveMappings flushes complete result blocks, then serializes the SSD
// cache mappings into the metadata region after the cache regions. It
// fails when the manager has no SSD or the device lacks space.
func (m *Manager) SaveMappings() error {
	if m.ssd == nil {
		return fmt.Errorf("core: no SSD to save mappings to")
	}
	m.FlushWriteBuffer()

	var buf bytes.Buffer
	w := func(v any) { binary.Write(&buf, binary.LittleEndian, v) } //nolint:errcheck
	buf.Write(mappingMagic[:])
	w(uint32(mappingVersion))
	w(uint32(m.cfg.Policy))

	// Result blocks: static first, then dynamic in LRU→MRU order.
	var rbs []*resultBlock
	rbs = append(rbs, m.staticRBs...)
	if m.rbLRU != nil {
		m.rbLRU.Ascend(func(e *cache.Entry[*resultBlock]) bool {
			rbs = append(rbs, e.Value)
			return true
		})
	}
	w(uint32(len(rbs)))
	for _, rb := range rbs {
		w(rb.num)
		w(rb.off)
		w(boolByte(rb.static))
		w(uint16(len(rb.slots)))
		for _, loc := range rb.slots {
			if loc == nil {
				w(uint8(0))
				continue
			}
			w(uint8(1))
			w(loc.qid)
			w(uint8(loc.state))
			w(int64(loc.loadedAt))
		}
	}

	// List entries: static pins first, then dynamic LRU→MRU.
	var lists []*ssdList
	for _, t := range sortedTermKeys(m.icStatic) {
		lists = append(lists, m.icStatic[t])
	}
	if m.icLRU != nil {
		m.icLRU.Ascend(func(e *cache.Entry[*ssdList]) bool {
			lists = append(lists, e.Value)
			return true
		})
	}
	w(uint32(len(lists)))
	for _, sl := range lists {
		w(int32(sl.term))
		w(sl.off)
		w(sl.blockBytes)
		w(sl.validBytes)
		w(uint8(sl.state))
		w(boolByte(sl.static))
		w(int64(sl.loadedAt))
	}

	// Term frequencies (EV continuity).
	w(uint32(len(m.termFreq)))
	for _, t := range sortedTermKeys(m.termFreq) {
		w(int32(t))
		w(m.termFreq[t])
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

func (m *Manager) loadMappings(raw []byte) error {
	r := bytes.NewReader(raw)
	read := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }

	var magic [4]byte
	if err := read(&magic); err != nil || magic != mappingMagic {
		return fmt.Errorf("core: bad mapping magic %q", magic[:])
	}
	var version, policy uint32
	if err := read(&version); err != nil || version != mappingVersion {
		return fmt.Errorf("core: unsupported mapping version %d", version)
	}
	if err := read(&policy); err != nil || Policy(policy) != m.cfg.Policy {
		return fmt.Errorf("core: mappings saved under policy %v, manager runs %v",
			Policy(policy), m.cfg.Policy)
	}

	var rbCount uint32
	if err := read(&rbCount); err != nil {
		return err
	}
	for i := uint32(0); i < rbCount; i++ {
		var num uint64
		var rbOff int64
		var staticB uint8
		var slots uint16
		if err := read(&num); err != nil {
			return err
		}
		if err := read(&rbOff); err != nil {
			return err
		}
		if err := read(&staticB); err != nil {
			return err
		}
		if err := read(&slots); err != nil {
			return err
		}
		size := m.lay.rbExtentBytes()
		if !m.rcAlloc.Reserve(rbOff, size) {
			return fmt.Errorf("core: RB %d extent [%d,+%d) unreservable", num, rbOff, size)
		}
		rb := &resultBlock{num: num, off: rbOff, static: staticB != 0,
			slots: make([]*ssdResult, slots)}
		for s := uint16(0); s < slots; s++ {
			var present uint8
			if err := read(&present); err != nil {
				return err
			}
			if present == 0 {
				continue
			}
			var qid uint64
			var state uint8
			var loadedAt int64
			if err := read(&qid); err != nil {
				return err
			}
			if err := read(&state); err != nil {
				return err
			}
			if err := read(&loadedAt); err != nil {
				return err
			}
			loc := &ssdResult{qid: qid, rb: rb, slot: int(s),
				state: entryState(state), loadedAt: durationFromI64(loadedAt)}
			rb.slots[s] = loc
			m.resultLoc[qid] = loc
		}
		if num >= m.nextRB {
			m.nextRB = num + 1
		}
		if rb.static {
			m.staticRBs = append(m.staticRBs, rb)
		} else if m.rbLRU != nil {
			m.rbLRU.Put(rb.num, size, rb)
		}
	}

	var listCount uint32
	if err := read(&listCount); err != nil {
		return err
	}
	for i := uint32(0); i < listCount; i++ {
		var term int32
		var lOff, blockBytes, validBytes int64
		var state, staticB uint8
		var loadedAt int64
		if err := read(&term); err != nil {
			return err
		}
		if err := read(&lOff); err != nil {
			return err
		}
		if err := read(&blockBytes); err != nil {
			return err
		}
		if err := read(&validBytes); err != nil {
			return err
		}
		if err := read(&state); err != nil {
			return err
		}
		if err := read(&staticB); err != nil {
			return err
		}
		if err := read(&loadedAt); err != nil {
			return err
		}
		if m.icAlloc == nil || !m.icAlloc.Reserve(lOff, blockBytes) {
			return fmt.Errorf("core: list extent [%d,+%d) unreservable", lOff, blockBytes)
		}
		sl := &ssdList{term: workload.TermID(term), off: lOff, blockBytes: blockBytes,
			validBytes: validBytes, state: entryState(state), static: staticB != 0,
			loadedAt: durationFromI64(loadedAt)}
		if sl.static {
			m.icStatic[sl.term] = sl
		} else {
			m.icLRU.Put(uint64(sl.term), blockBytes, sl)
		}
	}

	var freqCount uint32
	if err := read(&freqCount); err != nil {
		return err
	}
	for i := uint32(0); i < freqCount; i++ {
		var term int32
		var count int64
		if err := read(&term); err != nil {
			return err
		}
		if err := read(&count); err != nil {
			return err
		}
		m.termFreq[workload.TermID(term)] = count
	}
	return nil
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

func durationFromI64(v int64) time.Duration { return time.Duration(v) }

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
