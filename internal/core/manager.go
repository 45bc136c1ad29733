package core

import (
	"fmt"
	"math/bits"
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

// memList is an L1 inverted-list cache payload: the contiguous prefix of a
// term's list that query processing has touched (Fig 6b). prefix is a prefix
// buffer of the cache's own: whoever drops its last reference hands it to
// freePrefix.
type memList struct {
	term     workload.TermID
	prefix   []byte
	loadedAt time.Duration // simulated insertion time, for ListTTL
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
	ic *cache.List[memList]   // by term ID

	// L2: the SSD cache file's result and list regions, each with its write
	// buffer.
	results, lists region

	entriesPerRB int
	// freeEntries is the LIFO of entry buffers nothing references any more.
	// L1 holds a fixed number of fixed-size entries, so an insert takes its
	// victim's buffer; one is made only while the list is empty, which keeps
	// buffers in existence within the entries alive at once (CheckInvariants).
	freeEntries [][]byte

	// freePrefixes holds the L1 list prefix buffers nothing references any
	// more, a LIFO per power-of-two size class: class c serves requests of
	// up to 1<<c bytes, so its buffers hold that much or the L1 entry cap.
	// freePrefixBytes is their total capacity, which freePrefix bounds.
	freePrefixes    [64][][]byte
	freePrefixBytes int64

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
		results:      newRegion(0, cfg.SSDResultBytes),
		lists:        newRegion(cfg.SSDResultBytes, cfg.SSDListBytes),
		entriesPerRB: int(cfg.BlockBytes / cfg.ResultEntryBytes),
		termFreq:     make(map[workload.TermID]int64),
		queryFreq:    make(map[uint64]int64),
		puMeasured:   make(map[workload.TermID]float64),
		curTermSrc:   make(map[workload.TermID]sourceSet),
	}
	if m.entriesPerRB < 1 {
		return nil, fmt.Errorf("core: result entry %d larger than block %d",
			cfg.ResultEntryBytes, cfg.BlockBytes)
	}
	info := policyRegistry[cfg.Policy] // in range: Validate checked it
	if info.Baseline {
		m.lay = entryLayout{m}
	} else {
		m.lay = blockLogLayout{m: m, doorkeeper: info.Doorkeeper}
		if m.lists.lru != nil {
			// One block of write buffer, paid for out of the L1 list budget
			// so policies are compared at equal memory.
			m.lists.bufCap = min(cfg.BlockBytes, cfg.MemListBytes/2)
		}
	}
	m.ic = cache.NewList[memList](cfg.MemListBytes - m.lists.bufCap)
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

// StaticEV returns the efficiency value (Formula 2) by which static warm-up
// ranks term t for a pin, freq being its count in the sampled log: SC is
// Formula 1 over the whole list under the configured PU (Config.PU, or 1).
// It does not read the measured estimate, which warm-up's own executions
// feed, so recording them does not reorder the pins.
func (m *Manager) StaticEV(t workload.TermID, freq int64) float64 {
	pu := 1.0
	if m.cfg.PU != nil {
		pu = m.cfg.PU(t)
	}
	return ev(freq, m.scBlocks(m.ix.ListBytes(t), pu))
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

// prefixBuf returns an n-byte list prefix buffer for the caller to overwrite
// whole: recycled from n's size class, dirty on purpose, before new. A new one
// gets its class's capacity, never past the L1 entry cap, so it can grow in
// place and go back to the class. Out of line, like entryBuf.
//
//go:noinline
func (m *Manager) prefixBuf(n int64) []byte {
	c := bits.Len64(uint64(n - 1))
	if free := m.freePrefixes[c]; len(free) > 0 {
		buf := free[len(free)-1]
		free[len(free)-1] = nil // or the slot keeps it alive once the collector may have it
		m.freePrefixes[c] = free[:len(free)-1]
		m.freePrefixBytes -= int64(cap(buf))
		return buf[:n]
	}
	return make([]byte, n, min(1<<c, m.prefixCap()))
}

// freePrefix takes back a prefix buffer whose last reference was just dropped,
// into the largest class it can serve, unless the free lists already hold
// maxFreePrefixBytes; then the collector has it.
func (m *Manager) freePrefix(buf []byte) {
	n := int64(cap(buf))
	if n == 0 || m.freePrefixBytes+n > m.maxFreePrefixBytes() {
		return
	}
	c := bits.Len64(uint64(n)) - 1
	if n >= m.prefixCap() {
		c = bits.Len64(uint64(m.prefixCap() - 1)) // the top class: no prefix is longer
	}
	m.freePrefixes[c] = append(m.freePrefixes[c], buf[:0])
	m.freePrefixBytes += n
}

// maxFreePrefixBytes bounds the free prefix buffers at four L1 list budgets.
// Idle capacity builds up per class as the mix of prefix sizes drifts, and
// reaches about twice MemListBytes on the small-scale streams; at one or two
// budgets the pool turns away buffers it is asked for again (DESIGN §17).
func (m *Manager) maxFreePrefixBytes() int64 { return 4 * m.cfg.MemListBytes }

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

// breakerCooldown is how long (simulated time) the breaker stays open after
// tripping.
const breakerCooldown = 50 * time.Millisecond

// noteSSDError accounts one failed SSD operation — an EvIOError event, so
// trace sinks see every device failure — and the circuit-breaker streak.
// BreakerThreshold consecutive failures open the breaker for
// breakerCooldown simulated time.
func (m *Manager) noteSSDError(op storage.OpKind, n int64) {
	m.emit(Event{Kind: EvIOError, Level: LevelSSD, Op: op, Bytes: n})
	if m.cfg.BreakerThreshold <= 0 {
		return
	}
	m.ssdFailStreak++
	if m.ssdFailStreak >= m.cfg.BreakerThreshold {
		m.ssdFailStreak = 0
		m.breakerOpenUntil = m.clock.Now() + breakerCooldown
		m.emit(Event{Kind: EvBreakerTrip})
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
