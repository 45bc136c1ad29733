package core

import (
	"hybridstore/internal/workload"
)

// Level names a storage level of the hierarchy for event attribution.
type Level uint8

// Storage levels, outermost first.
const (
	LevelMem Level = iota
	LevelSSD
	LevelHDD
)

// String returns the lowercase level name.
func (l Level) String() string {
	switch l {
	case LevelMem:
		return "mem"
	case LevelSSD:
		return "ssd"
	case LevelHDD:
		return "hdd"
	default:
		return "level?"
	}
}

// EventKind classifies one manager event.
type EventKind uint8

// Manager event kinds. Each fires at the moment the corresponding stats
// counter is bumped, so a sink that sums event payloads reproduces the
// Stats totals exactly.
const (
	// EvListRead: Bytes of term Term's list served from Level.
	EvListRead EventKind = iota
	// EvResultHit: a result-cache probe served from Level (Bytes = entry size).
	EvResultHit
	// EvResultMiss: a result-cache probe that found nothing.
	EvResultMiss
	// EvListFlush: one device write of Bytes into the SSD list region — an
	// extent (Term is the first list it holds) or a pin appended to a static
	// block.
	EvListFlush
	// EvResultFlush: Bytes of result data written to the SSD cache, one
	// event per device write (an assembled RB under the cost-based
	// policies, a single entry under LRU or as a CBSLRU pin).
	EvResultFlush
	// EvListEvict: an inverted-list entry evicted from the cache at Level.
	EvListEvict
	// EvResultEvict: a result entry (or RB) evicted from the cache at Level.
	EvResultEvict
	// EvQueryEnd: the current query was classified into situation Sit.
	EvQueryEnd
	// EvIOError: an SSD cache operation failed; Bytes is the size of the
	// failed transfer, Level is always LevelSSD. One event per failed
	// device call, so the event count equals SSDReadErrors +
	// SSDWriteErrors + SSDTrimErrors.
	EvIOError
	// EvDegraded: a request was served around the SSD tier because the
	// circuit breaker is open (count == Stats.DegradedServes).
	EvDegraded
)

// String names the event kind.
func (k EventKind) String() string {
	names := [...]string{
		"list_read", "result_hit", "result_miss", "list_flush",
		"result_flush", "list_evict", "result_evict", "query_end",
		"io_error", "degraded",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return "event?"
}

// Event is one fine-grained cache-manager occurrence, emitted synchronously
// on the serving path for tracing and metrics. Fields beyond Kind are
// populated per kind (see the kind constants).
type Event struct {
	Kind  EventKind
	Term  workload.TermID
	Level Level
	Bytes int64
	Sit   Situation
}

// statsEventPairs declares the stats≡trace pairing: every listed Stats
// counter fires the mapped event at the moment it is bumped, so a sink
// that sums event payloads reproduces the Stats totals exactly. The
// statsevent analyzer (internal/analysis, run via cmd/hybridlint) reads
// this table and fails the lint when a paired counter is mutated without
// emitting its event in the same function — and when a new Stats field is
// added without an entry here or in statsUnpaired. TestStatsEventTables
// cross-checks the same totality at run time.
var statsEventPairs = map[string]EventKind{
	"ResultHitsMem":       EvResultHit,
	"ResultHitsSSD":       EvResultHit,
	"ResultMisses":        EvResultMiss,
	"L1ResultEvictions":   EvResultEvict,
	"L2ResultEvictions":   EvResultEvict,
	"RBRetired":           EvResultEvict,
	"ResultBytesToSSD":    EvResultFlush,
	"ListBytesFromMem":    EvListRead,
	"ListBytesFromSSD":    EvListRead,
	"ListBytesFromHDD":    EvListRead,
	"ListReqBytesFromHDD": EvListRead,
	"ListBytesToSSD":      EvListFlush,
	"ListWritesToSSD":     EvListFlush,
	"L1ListEvictions":     EvListEvict,
	"L2ListEvictions":     EvListEvict,
	"SSDReadErrors":       EvIOError,
	"SSDWriteErrors":      EvIOError,
	"SSDTrimErrors":       EvIOError,
	"DegradedServes":      EvDegraded,
	"Queries":             EvQueryEnd,
	"QueryTime":           EvQueryEnd,
	"Situations":          EvQueryEnd,
}

// statsUnpaired lists the Stats fields that deliberately fire no event,
// each with the reason the omission is sound. The statsevent analyzer
// requires every Stats field to appear in exactly one of the two tables.
var statsUnpaired = map[string]string{
	"ResultWritesElided":         "elision means nothing moved; the probe outcome was already evented",
	"RBFlushes":                  "sub-classifies the block-log RB writes among EvResultFlush, which also fires for CBSLRU pins and LRU entry writes",
	"ResultsDropped":             "terminal loss accounting; the failed flush already emitted EvIOError",
	"ResultsRequeued":            "retry bookkeeping; the triggering failure already emitted EvIOError",
	"ResultsExpired":             "TTL bookkeeping folded into the probe outcome (hit/miss) event",
	"ListsExpired":               "TTL bookkeeping folded into the read-path events",
	"ListsDiscarded":             "terminal loss accounting; the failed device call already emitted EvIOError",
	"ListWritesElided":           "elision means nothing moved; no bytes to attribute",
	"ListsWrittenToSSD":          "sub-classifies a device write already evented as EvListFlush, whose Bytes is the whole write",
	"ListPayloadBytesToSSD":      "sub-classifies a device write already evented as EvListFlush, whose Bytes is the whole write",
	"ListRequests":               "per-term demand folded at EndQuery; traffic is evented per level as EvListRead",
	"ListHits":                   "per-term demand folded at EndQuery; traffic is evented per level as EvListRead",
	"ListBytesRequested":         "demand-side counter; served bytes are evented per level as EvListRead",
	"ListBytesPrefetched":        "readahead beyond the request; the SSD write is evented as EvListFlush",
	"ListOverwritesInPlace":      "placement detail of a flush that already emitted EvListFlush",
	"ListPlacementWorstCase":     "placement detail of a flush that already emitted EvListFlush",
	"ListsTooLargeForL1":         "admission decision; no cache state changed",
	"ListsRejectedByAdmission":   "admission decision; no bytes moved, sub-classifies ListsDiscarded",
	"ResultsRejectedByAdmission": "admission decision; the entry was dropped before any device traffic",
	"ExtentsQuarantined":         "capacity retirement; the triggering failure already emitted EvIOError",
	"QuarantinedBytes":           "capacity retirement; the triggering failure already emitted EvIOError",
	"BreakerTrips":               "breaker state change; each contributing failure already emitted EvIOError",
}

// SetEventSink installs a callback receiving every manager event, or removes
// it when fn is nil. The sink is invoked synchronously on the serving path
// under the simulation's single-threaded discipline; it must not call back
// into the manager.
func (m *Manager) SetEventSink(fn func(Event)) { m.events = fn }

// emit delivers an event to the sink, if any.
func (m *Manager) emit(e Event) {
	if m.events != nil {
		m.events(e)
	}
}
