// Package intersect implements the intersection cache of the paper's
// three-level caching future work (§VIII, citing Long & Suel [19]): cached
// document-ID intersections of term pairs, the intermediate level between
// result caching and inverted-list caching.
//
// Intersections are exact under conjunctive (AND) semantics: a cached pair
// intersection lets the query processor skip reading both full posting
// lists. Entries keep both terms' frequencies so scoring needs no extra
// I/O.
package intersect

import (
	"fmt"

	"hybridstore/internal/cache"
	"hybridstore/internal/workload"
)

// Posting is one intersection entry: a document present in both lists,
// with each list's term frequency.
type Posting struct {
	Doc      uint32
	TFA, TFB uint16
}

// PostingBytes is the accounted size of one intersection posting.
const PostingBytes = 8

// Pair is a canonical (ordered) term pair.
type Pair struct {
	A, B workload.TermID
}

// MakePair canonicalizes two distinct terms into a Pair (A < B). It panics
// when a == b: self-intersection is just the list itself.
func MakePair(a, b workload.TermID) Pair {
	if a == b {
		panic(fmt.Sprintf("intersect: self pair %d", a))
	}
	if a > b {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

func (p Pair) key() uint64 { return uint64(uint32(p.A))<<32 | uint64(uint32(p.B)) }

// Cache is a byte-accounted LRU intersection cache. The Charge callback
// (optional) charges simulated memory-access time for hits and inserts.
//
// Cache is not safe for concurrent use.
type Cache struct {
	list   *cache.List[[]Posting]
	charge func(bytes int)
	hits   int64
	misses int64
	puts   int64
}

// New builds a cache with the given byte capacity. charge may be nil.
func New(capacityBytes int64, charge func(bytes int)) *Cache {
	if charge == nil {
		charge = func(int) {}
	}
	return &Cache{list: cache.NewList[[]Posting](capacityBytes), charge: charge}
}

// Get returns the cached intersection for the pair, ordered so TFA belongs
// to the smaller term ID.
func (c *Cache) Get(p Pair) ([]Posting, bool) {
	e, ok := c.list.Get(p.key())
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.charge(len(e.Value) * PostingBytes)
	return e.Value, true
}

// Put stores an intersection, evicting least-recently-used pairs to fit.
// Oversized intersections (more than a quarter of the cache) are rejected.
func (c *Cache) Put(p Pair, postings []Posting) bool {
	size := int64(len(postings)) * PostingBytes
	if size == 0 {
		size = 1 // empty intersections are valuable knowledge too
	}
	if size > c.list.Capacity()/4 {
		return false
	}
	if old, ok := c.list.Peek(p.key()); ok {
		c.list.RemoveEntry(old)
	}
	for !c.list.Fits(size) {
		victim := c.list.LRUEntry()
		if victim == nil {
			return false
		}
		c.list.RemoveEntry(victim)
	}
	c.list.Put(p.key(), size, postings)
	c.charge(int(size))
	c.puts++
	return true
}

// Stats reports cache effectiveness.
type Stats struct {
	Hits, Misses, Puts int64
	Entries            int
	UsedBytes          int64
}

// Stats returns a snapshot.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits: c.hits, Misses: c.misses, Puts: c.puts,
		Entries: c.list.Len(), UsedBytes: c.list.Used(),
	}
}

// HitRatio returns hits/(hits+misses).
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Intersect computes the intersection of two doc-ascending posting lists
// (pure function, used by the engine and by tests as the reference).
func Intersect(a, b []workload.Posting) []Posting {
	out := make([]Posting, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Doc < b[j].Doc:
			i++
		case a[i].Doc > b[j].Doc:
			j++
		default:
			out = append(out, Posting{Doc: a[i].Doc, TFA: a[i].TF, TFB: b[j].TF})
			i++
			j++
		}
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
