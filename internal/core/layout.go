package core

import (
	"hybridstore/internal/cache"
	"hybridstore/internal/workload"
)

// layout is what a cache configuration does: the unit L1 caches an inverted
// list in and which entry it evicts, and where, in what unit and with which
// state transitions evicted data lands on the SSD. The paper compares exactly
// two — the LRU baseline's entries (§VII, layout_entry.go) and the cost-based
// family's block-aligned log (§VI, layout_blocklog.go) — and New picks one
// from the policy's registry entry (policy.go). Each method has exactly one
// call site in the Manager's serving paths, which therefore carry no policy
// conditional of their own.
type layout interface {
	// chooseL1ListVictim picks the next L1 inverted-list eviction victim,
	// never returning exclude. Nil means nothing evictable.
	chooseL1ListVictim(exclude *cache.Entry[memList]) *cache.Entry[memList]
	// fillL1 caches the bytes ReadListRange just served for t (p, at list
	// offset off of a total-byte list) in the L1 list cache. l1 is t's
	// resident entry or nil; hddTail says the disk head sits at the end of p.
	fillL1(t workload.TermID, l1 *memList, off int64, p []byte, total int64, hddTail bool)
	// flushList places an inverted list evicted from L1 in the L2 list
	// region, or discards it, and owns ml.prefix from the call on
	// (freePrefix once nothing needs it). The region exists and the SSD is
	// healthy.
	flushList(ml memList)
	// evictResult places a result entry evicted from L1 in the L2 result
	// region, or drops it, and owns mr.data from the call on (freeEntry once
	// nothing needs it). The region exists.
	evictResult(qid uint64, mr *memResult)
	// copiedUp applies the Fig 9 transition to a dynamic SSD entry whose
	// content was just copied back into memory.
	copiedUp(st *entryState)
	// expireResult removes a TTL-expired dynamic SSD result entry.
	expireResult(e *ssdEntry)
	// resultRetireKind is the event an extent leaving the result region is
	// counted as: EvRBRetire for a result block, EvResultEvict for an entry.
	resultRetireKind() EventKind
	// checkExtent reports a violation of the layout's alignment rule for
	// one L2 extent (CheckInvariants).
	checkExtent(x *extent) error
}
