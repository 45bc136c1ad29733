package core

import (
	"fmt"
	"time"

	"hybridstore/internal/cache"
	"hybridstore/internal/index"
	"hybridstore/internal/simclock"
	"hybridstore/internal/storage"
	"hybridstore/internal/workload"
)

// entryState tracks the paper's SSD entry life cycle (Figs 8–9): a normal
// entry is valid and read-only; a replaceable entry is still readable but
// may be overwritten first (its content has been copied back to memory).
type entryState uint8

const (
	stateNormal entryState = iota
	stateReplaceable
)

// memList is an L1 inverted-list cache entry: the contiguous prefix of a
// term's list that query processing has touched (Fig 6b).
type memList struct {
	term     workload.TermID
	prefix   []byte
	loadedAt time.Duration // simulated insertion time, for ListTTL
}

// ssdList is an L2 inverted-list cache entry: a prefix of the list, either
// waiting in the list write buffer (ext nil, data set) or stored in the SSD
// cache file inside an extent (Fig 7c).
type ssdList struct {
	term       workload.TermID
	ext        *listExtent // nil while the prefix waits in the list write buffer
	off        int64       // list-region offset of the prefix's first byte
	validBytes int64       // prefix bytes present
	state      entryState
	loadedAt   time.Duration // age of the content, for ListTTL
	data       []byte        // the prefix, until it is on the SSD
}

// listExtent is the placement and replacement unit of the L2 list cache, as
// the RB is for results: SC whole blocks under the block log (any byte range
// under the baseline) holding one prefix of a block or more, or several
// sub-block prefixes packed end to end. A list that is superseded or expires
// leaves dead bytes behind; the extent goes when its last live list does.
type listExtent struct {
	off, bytes int64
	static     bool       // holds CBSLRU pins: never replaced, not in icLRU
	lists      []*ssdList // live lists, by ascending offset
}

// normalBytes is the valid, non-replaceable payload an overwrite of the
// extent would lose — for lists what an RB's valid count is in Fig 11.
func (x *listExtent) normalBytes() int64 {
	var n int64
	for _, sl := range x.lists {
		if sl.state == stateNormal {
			n += sl.validBytes
		}
	}
	return n
}

// fill returns the extent-relative offset just past the last live list.
func (x *listExtent) fill() int64 {
	if len(x.lists) == 0 {
		return 0
	}
	last := x.lists[len(x.lists)-1]
	return last.off + last.validBytes - x.off
}

// ssdResult locates one cached result entry inside a result block (Fig 7a).
type ssdResult struct {
	qid      uint64
	rb       *resultBlock
	slot     int
	state    entryState
	loadedAt time.Duration // age of the content, for ResultTTL
}

// resultBlock is one 128 KB "RB": the placement and replacement unit of the
// L2 result cache (Fig 7b). Slots hold fixed-size result entries; nil slots
// are invalid (overwritten or never filled).
type resultBlock struct {
	num    uint64
	off    int64 // device offset, block-aligned
	slots  []*ssdResult
	static bool
}

// iren returns the invalid-result-entry number of Fig 11: empty slots plus
// replaceable entries.
func (rb *resultBlock) iren() int {
	n := 0
	for _, s := range rb.slots {
		if s == nil || s.state == stateReplaceable {
			n++
		}
	}
	return n
}

// validCount returns the number of normal (valid, non-replaceable) entries.
func (rb *resultBlock) validCount() int { return len(rb.slots) - rb.iren() }

// freeSlot returns the index of the first empty slot, or -1 when full.
func (rb *resultBlock) freeSlot() int {
	for i, s := range rb.slots {
		if s == nil {
			return i
		}
	}
	return -1
}

// bufferedResult is one evicted result entry waiting in the write buffer
// for RB assembly (Fig 10b).
type bufferedResult struct {
	qid      uint64
	data     []byte
	loadedAt time.Duration
	// requeued marks an entry whose RB flush already failed once; a second
	// failure drops it (bounded retries keep the buffer from pinning
	// unflushable data forever).
	requeued bool
}

// memResult is an L1 result-cache payload. data is an entry buffer of the
// cache's own: whoever drops its last reference hands it to freeEntry.
type memResult struct {
	data     []byte
	loadedAt time.Duration
}

// Manager is the paper's cache manager (Fig 2): selection management,
// query management and replacement management over a memory L1, an SSD L2
// and the backing index store.
//
// Manager is not safe for concurrent use; the simulation driver serializes
// queries, as the paper's single-node evaluation does.
type Manager struct {
	cfg   Config
	clock *simclock.Clock
	ix    *index.Index
	ssd   storage.Device // nil = one-level cache (memory only)

	// lay is the layout the registry entry's Baseline bit selects for
	// cfg.Policy (see policy.go, layout.go).
	lay layout

	// L1.
	rc *cache.List[memResult] // by query ID
	ic *cache.List[*memList]  // by term ID

	// L2 result cache.
	entriesPerRB int
	rbLRU        *cache.List[*resultBlock] // by RB num; dynamic RBs only
	resultLoc    map[uint64]*ssdResult
	rcAlloc      *storage.Allocator
	writeBuf     []bufferedResult
	nextRB       uint64
	rbBatch      []bufferedResult // flushResultBlock's batch, entriesPerRB long
	// freeEntries is the LIFO of entry buffers nothing references any more.
	// L1 holds a fixed number of fixed-size entries, so an insert takes its
	// victim's buffer; one is made only while the list is empty, which keeps
	// buffers in existence within the entries alive at once (CheckInvariants).
	freeEntries [][]byte
	staticRBs   []*resultBlock

	// L2 inverted-list cache. Dynamic lists are found by term in icDyn,
	// whether still in the list write buffer or inside an extent of icLRU;
	// pins live in static extents that only icStatic reaches.
	icLRU    *cache.List[*listExtent] // by extent offset; dynamic extents only
	icAlloc  *storage.Allocator
	icDyn    map[workload.TermID]*ssdList
	icStatic map[workload.TermID]*ssdList

	// listBuf is the list write buffer (§VI-B applied to lists): admitted
	// prefixes shorter than a block wait here, readable, until the next one
	// would overflow listBufCap, then go out as one whole block. Its capacity
	// is memory taken out of the L1 list budget.
	listBuf      []*ssdList
	listBufBytes int64
	listBufCap   int64

	// staticOpen is the static block sub-block pins are appended to, and
	// staticListTaken the bytes of the list region static extents hold.
	staticOpen      *listExtent
	staticListTaken int64

	// Frequency and utilization tracking for Formulas 1–2.
	termFreq   map[workload.TermID]int64
	queryFreq  map[uint64]int64
	puMeasured map[workload.TermID]float64

	// Per-query situation tracking (Table I).
	curQuery       uint64
	curQueryActive bool
	curResultSrc   sourceSet
	curTermSrc     map[workload.TermID]sourceSet

	// events, when set, receives fine-grained manager events (see events.go).
	events func(Event)

	// ssdq orders the cache SSD's work on the shared clock. Cache flushes
	// are asynchronous (the paper's write buffer decouples them from
	// queries) but occupy the device: they queue behind each other, yield
	// to foreground reads, and stall their issuer once the queue is full,
	// which is how background write pressure reaches queries (§VII-D).
	ssdq ssdQueue

	// SSD circuit breaker: consecutive device failures trip it, after
	// which the manager serves around the L2 tier until the cooldown
	// (simulated time) passes.
	ssdFailStreak    int
	breakerOpenUntil time.Duration

	// staging holds the one padded extent in flight to the SSD (a list
	// prefix rounded up to whole blocks, an assembled result block). Devices
	// copy what they are handed, so every flush reuses it. Everything from
	// stagingDirty to its capacity is zero, so padding an extent clears only
	// what the previous payload left behind.
	staging      []byte
	stagingDirty int64

	// staticRBScan is the first-free cursor into staticRBs for PinResult:
	// static slots are never vacated, so RBs fill monotonically and the
	// cursor only moves forward.
	staticRBScan int

	stats Stats
}

// New builds a cache manager over the backing index ix, with ssd as the L2
// device (nil for a one-level, memory-only cache).
//
// The backing index's device must share clock. The SSD cache device must
// be bound to its OWN private clock: the manager takes the service time each
// device call returns and spends it on the shared clock through its command
// queue (ssdQueue) — reads at once and at their own cost, writes and trims
// as background work that drains while the device is not reading.
func New(clock *simclock.Clock, ix *index.Index, ssd storage.Device, cfg Config) (*Manager, error) {
	cfg.fillDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ssd == nil && (cfg.SSDResultBytes > 0 || cfg.SSDListBytes > 0) {
		return nil, fmt.Errorf("core: SSD regions configured but no SSD device")
	}
	if ssd != nil && cfg.SSDResultBytes+cfg.SSDListBytes > ssd.Size() {
		return nil, fmt.Errorf("core: SSD regions %d+%d exceed device size %d",
			cfg.SSDResultBytes, cfg.SSDListBytes, ssd.Size())
	}
	m := &Manager{
		cfg:          cfg,
		clock:        clock,
		ix:           ix,
		ssd:          ssd,
		ssdq:         ssdQueue{clock: clock},
		rc:           cache.NewList[memResult](cfg.MemResultBytes),
		entriesPerRB: int(cfg.BlockBytes / cfg.ResultEntryBytes),
		resultLoc:    make(map[uint64]*ssdResult),
		icDyn:        make(map[workload.TermID]*ssdList),
		icStatic:     make(map[workload.TermID]*ssdList),
		termFreq:     make(map[workload.TermID]int64),
		queryFreq:    make(map[uint64]int64),
		puMeasured:   make(map[workload.TermID]float64),
		curTermSrc:   make(map[workload.TermID]sourceSet),
	}
	if m.entriesPerRB < 1 {
		return nil, fmt.Errorf("core: result entry %d larger than block %d",
			cfg.ResultEntryBytes, cfg.BlockBytes)
	}
	m.rbBatch = make([]bufferedResult, m.entriesPerRB)
	if cfg.SSDResultBytes > 0 {
		m.rbLRU = cache.NewList[*resultBlock](cfg.SSDResultBytes)
		m.rcAlloc = storage.NewAllocator(cfg.SSDResultBytes)
	}
	if cfg.SSDListBytes > 0 {
		m.icLRU = cache.NewList[*listExtent](cfg.SSDListBytes)
		m.icAlloc = storage.NewAllocator(cfg.SSDListBytes)
	}
	info := policyRegistry[cfg.Policy] // in range: Validate checked it
	if info.Baseline {
		m.lay = entryLayout{m}
	} else {
		m.lay = blockLogLayout{m: m, doorkeeper: info.Doorkeeper}
		if m.icLRU != nil {
			// One block of write buffer, paid for out of the L1 list budget
			// so policies are compared at equal memory.
			m.listBufCap = min(cfg.BlockBytes, cfg.MemListBytes/2)
		}
	}
	m.ic = cache.NewList[*memList](cfg.MemListBytes - m.listBufCap)
	return m, nil
}

// Policy returns the manager's replacement policy.
func (m *Manager) Policy() Policy { return m.cfg.Policy }

// UsesStaticPartition reports whether the active policy reserves static
// SSD partitions populated by query-log analysis (CBSLRU). Callers use it
// to decide whether a WarmupStatic pass is meaningful.
func (m *Manager) UsesStaticPartition() bool { return policyRegistry[m.cfg.Policy].Static }

// Config returns the effective configuration.
func (m *Manager) Config() Config { return m.cfg }

// L1 access costs a fixed latency plus the transfer at memory bandwidth
// (10 GiB/s).
const (
	memAccessLatency = 100 * time.Nanosecond
	memNSPerByte     = float64(time.Second) / (10 << 30)
)

// memCost charges L1 access time for an n-byte transfer.
func (m *Manager) memCost(n int) {
	m.clock.AdvanceAttr(memAccessLatency+time.Duration(float64(n)*memNSPerByte),
		simclock.CompCacheBookkeeping)
}

// pu returns the utilization rate for term t. Measured samples (the online
// form of the paper's query-log analysis) take precedence; the configured
// model acts as the prior for terms never yet executed; 1 (cache the whole
// used prefix) is the fallback.
func (m *Manager) pu(t workload.TermID) float64 {
	if v, ok := m.puMeasured[t]; ok {
		return v
	}
	if m.cfg.PU != nil {
		return m.cfg.PU(t)
	}
	return 1
}

// RecordUtilization feeds a measured per-term utilization sample (from
// engine.ExecStats) into the running PU estimate. The paper obtains PU "by
// analyzing the query log"; feeding execution stats is the online variant.
func (m *Manager) RecordUtilization(t workload.TermID, utilization float64) {
	if utilization <= 0 {
		return
	}
	if utilization > 1 {
		utilization = 1
	}
	if old, ok := m.puMeasured[t]; ok {
		m.puMeasured[t] = 0.8*old + 0.2*utilization
	} else {
		m.puMeasured[t] = utilization
	}
}

// scBlocks implements Formula 1: the number of whole SSD blocks to cache
// for a list whose used size in memory is si bytes.
func (m *Manager) scBlocks(si int64, pu float64) int64 {
	if si <= 0 {
		return 0
	}
	sc := (int64(float64(si)*pu) + m.cfg.BlockBytes - 1) / m.cfg.BlockBytes
	if sc < 1 {
		sc = 1
	}
	return sc
}

// ev implements Formula 2: the efficiency value of a list with the given
// access frequency and cached size in blocks.
func ev(freq, scBlocks int64) float64 {
	if scBlocks <= 0 {
		return 0
	}
	return float64(freq) / float64(scBlocks)
}

// ssdRead performs a foreground SSD read: it goes ahead of any queued
// background work and its service time is charged on the shared clock.
func (m *Manager) ssdRead(p []byte, off int64) error {
	lat, err := m.ssd.ReadAt(p, off)
	if err != nil {
		m.noteSSDError(storage.OpRead, int64(len(p)))
		return err
	}
	m.ssdFailStreak = 0
	m.ssdq.read(lat)
	return nil
}

// ssdWrite performs a background SSD write: its service time (including any
// garbage collection it triggered) joins the device's command queue, and
// costs foreground time only when the queue is full.
func (m *Manager) ssdWrite(p []byte, off int64) error {
	lat, err := m.ssd.WriteAt(p, off)
	if err != nil {
		m.noteSSDError(storage.OpWrite, int64(len(p)))
		return err
	}
	m.ssdFailStreak = 0
	m.ssdq.enqueue(lat)
	return nil
}

// entryBuf returns an entry buffer for the caller to overwrite whole: recycled,
// dirty on purpose, before new. Out of line: its make is one allocbudget row.
//
//go:noinline
func (m *Manager) entryBuf() []byte {
	if n := len(m.freeEntries); n > 0 {
		buf := m.freeEntries[n-1]
		m.freeEntries = m.freeEntries[:n-1]
		return buf
	}
	return make([]byte, m.cfg.ResultEntryBytes)
}

// freeEntry takes back an entry buffer whose last reference was just dropped.
func (m *Manager) freeEntry(buf []byte) { m.freeEntries = append(m.freeEntries, buf) }

// stagingBuf returns the staging buffer sized for an n-byte extent whose
// first payload bytes the caller is about to overwrite; the rest is zero.
func (m *Manager) stagingBuf(n, payload int64) []byte {
	if int64(cap(m.staging)) < n {
		m.staging, m.stagingDirty = make([]byte, n), 0
	}
	if payload < m.stagingDirty {
		clear(m.staging[payload:m.stagingDirty])
	}
	m.stagingDirty = payload
	return m.staging[:n]
}

// ssdTrim issues a background trim when the device supports it.
func (m *Manager) ssdTrim(off, n int64) {
	t, ok := m.ssd.(storage.Trimmer)
	if !ok {
		return
	}
	lat, err := t.Trim(off, n)
	if err != nil {
		m.noteSSDError(storage.OpTrim, n)
		return
	}
	m.ssdFailStreak = 0
	m.ssdq.enqueue(lat)
}

// noteSSDError accounts one failed SSD operation: per-kind counter, an
// EvIOError event (so trace sinks see every device failure), and the
// circuit-breaker streak. BreakerThreshold consecutive failures open the
// breaker for BreakerCooldown simulated time.
func (m *Manager) noteSSDError(kind storage.OpKind, n int64) {
	switch kind {
	case storage.OpRead:
		m.stats.SSDReadErrors++
	case storage.OpWrite:
		m.stats.SSDWriteErrors++
	default:
		m.stats.SSDTrimErrors++
	}
	m.emit(Event{Kind: EvIOError, Level: LevelSSD, Bytes: n})
	if m.cfg.BreakerThreshold <= 0 {
		return
	}
	m.ssdFailStreak++
	if m.ssdFailStreak >= m.cfg.BreakerThreshold {
		m.ssdFailStreak = 0
		m.breakerOpenUntil = m.clock.Now() + m.cfg.BreakerCooldown
		m.stats.BreakerTrips++
	}
}

// ssdHealthy reports whether the L2 tier should be used right now: there is
// a device and the circuit breaker is closed.
func (m *Manager) ssdHealthy() bool {
	return m.ssd != nil && m.clock.Now() >= m.breakerOpenUntil
}

// DegradedMode reports whether the circuit breaker is currently open
// (reads and flushes are routed around the SSD tier).
func (m *Manager) DegradedMode() bool {
	return m.ssd != nil && m.clock.Now() < m.breakerOpenUntil
}

// noteDegraded accounts one request served around the open breaker.
func (m *Manager) noteDegraded() {
	m.stats.DegradedServes++
	m.emit(Event{Kind: EvDegraded, Level: LevelSSD})
}

// quarantine retires an allocator extent whose device range failed and
// accounts the lost capacity.
func (m *Manager) quarantine(a *storage.Allocator, off, n int64) {
	a.Quarantine(off, n)
	m.stats.ExtentsQuarantined++
	m.stats.QuarantinedBytes += n
}

// resultExpired reports whether a result entry loaded at the given
// simulated time has outlived Config.ResultTTL (dynamic scenario, §IV-B).
func (m *Manager) resultExpired(loadedAt time.Duration) bool {
	return m.cfg.ResultTTL > 0 && m.clock.Now()-loadedAt > m.cfg.ResultTTL
}

// listExpired is the inverted-list counterpart of resultExpired.
func (m *Manager) listExpired(loadedAt time.Duration) bool {
	return m.cfg.ListTTL > 0 && m.clock.Now()-loadedAt > m.cfg.ListTTL
}

// NumDocs implements engine.ListSource.
func (m *Manager) NumDocs() int64 { return m.ix.NumDocs() }

// ListBytes implements engine.ListSource.
func (m *Manager) ListBytes(t workload.TermID) int64 { return m.ix.ListBytes(t) }

// TermDF implements engine.ListSource.
func (m *Manager) TermDF(t workload.TermID) int64 { return m.ix.TermDF(t) }

// Codec implements engine.ListSource.
func (m *Manager) Codec() index.CodecID { return m.ix.Codec() }

// ListBlocks implements engine.ListSource. Block directories are in-memory
// metadata: reading them costs no device time and goes straight to the
// index.
func (m *Manager) ListBlocks(t workload.TermID) []index.BlockRef { return m.ix.ListBlocks(t) }
