package core

import (
	"time"

	"hybridstore/internal/storage"
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

// Manager event kinds. The manager's counters are the fold of its event
// stream (Stats.apply), so every counter change is one event of these.
const (
	// EvListRead: Bytes of term Term's list served from Level to the engine.
	EvListRead EventKind = iota
	// EvResultHit: a result-cache probe served from Level (Bytes = entry size).
	EvResultHit
	// EvResultMiss: a result-cache probe that found nothing.
	EvResultMiss
	// EvListFlush: one device write of Bytes into the SSD list region — an
	// extent (Term is the first list it holds) or a pin appended to a static
	// block — carrying N list prefixes of Part bytes in all; the rest is
	// padding.
	EvListFlush
	// EvResultFlush: Bytes of result data written to the SSD cache in one
	// device write: a CBSLRU pin or a single entry under LRU.
	EvResultFlush
	// EvListEvict: an inverted-list entry evicted from the cache at Level.
	EvListEvict
	// EvResultEvict: a result entry evicted from the cache at Level.
	EvResultEvict
	// EvQueryEnd: the current query took Elapsed and was classified into
	// situation Sit; it requested N terms' lists, Part of them with no HDD
	// bytes.
	EvQueryEnd
	// EvIOError: an SSD cache operation Op failed; Bytes is the size of the
	// failed transfer, Level is always LevelSSD.
	EvIOError
	// EvDegraded: a request was served around the SSD tier because the
	// circuit breaker is open.
	EvDegraded
	// EvListFill: Bytes of Term's list read from Level beyond the engine's
	// request, to fill L1 (readahead, or the rest of a whole list).
	EvListFill
	// EvRBFlush: an assembled result block of Bytes written to the SSD.
	EvRBFlush
	// EvRBRetire: a result block replaced or quarantined at LevelSSD.
	EvRBRetire
	// EvListRequest: the engine asked for Bytes of Term's list.
	EvListRequest
	// EvListPrefetch: Bytes of readahead joined an L1 prefix.
	EvListPrefetch
	// EvListTooLarge: a list too long for an L1 entry was not cached there.
	EvListTooLarge
	// EvListExpire, EvResultExpire: an entry outlived its TTL.
	EvListExpire
	EvResultExpire
	// EvListElide, EvResultElide: an eviction found its SSD copy still there
	// and revalidated it, or a result its copy in the write buffer and took
	// its place, instead of writing; or a pin took a result's copy out of the
	// write buffer.
	EvListElide
	EvResultElide
	// EvListOverwrite: a list extent was placed over a same-size victim.
	EvListOverwrite
	// EvListWorstCase: placing a list extent swept the whole LRU list.
	EvListWorstCase
	// EvListDiscard: N evicted lists were not written to the SSD.
	EvListDiscard
	// EvListReject, EvResultReject: the doorkeeper kept an evicted list
	// (one more discard) or result entry off the flash.
	EvListReject
	EvResultReject
	// EvResultDrop: N evicted result entries were lost before the SSD.
	EvResultDrop
	// EvResultRequeue: a result entry whose RB write failed went back to
	// the write buffer.
	EvResultRequeue
	// EvQuarantine: an SSD extent of Bytes was retired after a device error.
	EvQuarantine
	// EvBreakerTrip: the SSD circuit breaker opened.
	EvBreakerTrip
)

// Event is one fine-grained cache-manager occurrence, emitted synchronously
// on the serving path for tracing and metrics. Fields beyond Kind are
// populated per kind (see the kind constants).
type Event struct {
	Kind    EventKind
	Level   Level
	Op      storage.OpKind
	Term    workload.TermID
	Sit     Situation
	Bytes   int64
	N, Part int64
	Elapsed time.Duration
}

// apply folds one event into the counters. Besides ResetStats it is the only
// writer of Stats, so a sink that applies the events it receives to a zero
// Stats holds the manager's counters.
func (s *Stats) apply(e Event) {
	switch e.Kind {
	case EvListRead, EvListFill:
		switch e.Level {
		case LevelMem:
			s.ListBytesFromMem += e.Bytes
		case LevelSSD:
			s.ListBytesFromSSD += e.Bytes
		default:
			s.ListBytesFromHDD += e.Bytes
			if e.Kind == EvListRead {
				s.ListReqBytesFromHDD += e.Bytes
			}
		}
	case EvResultHit:
		if e.Level == LevelMem {
			s.ResultHitsMem++
		} else {
			s.ResultHitsSSD++
		}
	case EvResultMiss:
		s.ResultMisses++
	case EvListFlush:
		s.ListBytesToSSD += e.Bytes
		s.ListWritesToSSD++
		s.ListsWrittenToSSD += e.N
		s.ListPayloadBytesToSSD += e.Part
	case EvRBFlush:
		s.RBFlushes++
		s.ResultBytesToSSD += e.Bytes
	case EvResultFlush:
		s.ResultBytesToSSD += e.Bytes
	case EvListEvict:
		if e.Level == LevelMem {
			s.L1ListEvictions++
		} else {
			s.L2ListEvictions++
		}
	case EvResultEvict:
		if e.Level == LevelMem {
			s.L1ResultEvictions++
		} else {
			s.L2ResultEvictions++
		}
	case EvRBRetire:
		s.RBRetired++
	case EvQueryEnd:
		s.Queries++
		s.QueryTime += e.Elapsed
		s.Situations.Counts[e.Sit]++
		s.Situations.Time[e.Sit] += e.Elapsed
		s.ListRequests += e.N
		s.ListHits += e.Part
	case EvIOError:
		switch e.Op {
		case storage.OpRead:
			s.SSDReadErrors++
		case storage.OpWrite:
			s.SSDWriteErrors++
		default:
			s.SSDTrimErrors++
		}
	case EvDegraded:
		s.DegradedServes++
	case EvListRequest:
		s.ListBytesRequested += e.Bytes
	case EvListPrefetch:
		s.ListBytesPrefetched += e.Bytes
	case EvListTooLarge:
		s.ListsTooLargeForL1++
	case EvListExpire:
		s.ListsExpired++
	case EvResultExpire:
		s.ResultsExpired++
	case EvListElide:
		s.ListWritesElided++
	case EvResultElide:
		s.ResultWritesElided++
	case EvListOverwrite:
		s.ListOverwritesInPlace++
	case EvListWorstCase:
		s.ListPlacementWorstCase++
	case EvListDiscard:
		s.ListsDiscarded += e.N
	case EvListReject:
		s.ListsRejectedByAdmission++
		s.ListsDiscarded++
	case EvResultReject:
		s.ResultsRejectedByAdmission++
	case EvResultDrop:
		s.ResultsDropped += e.N
	case EvResultRequeue:
		s.ResultsRequeued++
	case EvQuarantine:
		s.ExtentsQuarantined++
		s.QuarantinedBytes += e.Bytes
	case EvBreakerTrip:
		s.BreakerTrips++
	}
}

// SetEventSink installs a callback receiving every manager event, or removes
// it when fn is nil. The sink is invoked synchronously on the serving path
// under the simulation's single-threaded discipline; it must not call back
// into the manager.
func (m *Manager) SetEventSink(fn func(Event)) { m.events = fn }

// emit folds an event into the counters and, inside a query, into the
// levels its terms and result came from, then delivers it to the sink.
func (m *Manager) emit(e Event) {
	m.stats.apply(e)
	if m.curQueryActive {
		switch e.Kind {
		case EvListRead, EvListFill:
			m.curTermSrc[e.Term] |= 1 << e.Level
		case EvResultHit:
			m.curResultSrc |= 1 << e.Level
		}
	}
	if m.events != nil {
		m.events(e)
	}
}
