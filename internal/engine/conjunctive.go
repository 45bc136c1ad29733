package engine

import (
	"sort"
	"time"

	"hybridstore/internal/index"
	"hybridstore/internal/intersect"
	"hybridstore/internal/simclock"
	"hybridstore/internal/workload"
)

// Conjunctive query processing (AND semantics) over doc-sorted lists with
// skip entries — the access pattern behind the paper's "skipped reads"
// observation (§III): the driver list is scanned, and the other lists are
// probed by jumping between blocks via the in-memory block directory's
// MaxDoc skip entries, so large spans of postings are never read. An
// optional intersection cache (the third cache level of §VIII's future
// work) short-circuits the two smallest lists entirely.

// DocSource supplies doc-sorted encoded postings and their block
// directories. *index.Index implements it.
type DocSource interface {
	NumDocs() int64
	TermDF(t workload.TermID) int64
	Codec() index.CodecID
	// DocBlocks returns term t's doc-sorted block directory (ascending
	// MaxDoc). In-memory metadata — no device cost.
	DocBlocks(t workload.TermID) []index.BlockRef
	// DocBytes returns the encoded size of term t's doc-sorted payload.
	DocBytes(t workload.TermID) int64
	// ReadDocRange fills p with encoded doc-sorted bytes from offset off.
	ReadDocRange(t workload.TermID, off int64, p []byte) error
}

// ConjStats summarizes one conjunctive execution.
type ConjStats struct {
	// BlocksRead counts doc blocks actually fetched and decoded.
	BlocksRead int64
	// BlocksSkipped counts doc blocks jumped over without reading — the
	// §III "skipped read" savings.
	BlocksSkipped int64
	// Matches is the size of the final conjunction.
	Matches int64
	// IntersectionHit is true when the pair cache served the two smallest
	// lists.
	IntersectionHit bool
}

// Conjunctive executes AND queries against a DocSource.
type Conjunctive struct {
	src    DocSource
	cfg    Config
	icache *intersect.Cache // optional third-level cache
}

// NewConjunctive builds a conjunctive engine. icache may be nil.
func NewConjunctive(src DocSource, cfg Config, icache *intersect.Cache) *Conjunctive {
	cfg.fillDefaults()
	return &Conjunctive{src: src, cfg: cfg, icache: icache}
}

// docCursor walks one term's doc-sorted list block by block, decoding each
// fetched block into a fixed scratch so probes can binary-search it.
// Blocks between probe targets are never read — only their directory
// entries (the in-memory skip entries) are consulted.
type docCursor struct {
	src     DocSource
	term    workload.TermID
	codec   index.CodecID
	blocks  []index.BlockRef
	total   int64 // encoded payload bytes
	stats   *ConjStats
	idx     int // current block index, -1 none loaded
	buf     []byte
	decoded []workload.Posting // current block, decoded
	pos     int                // streaming position within decoded
}

func newDocCursor(src DocSource, t workload.TermID, stats *ConjStats) *docCursor {
	return &docCursor{
		src:    src,
		term:   t,
		codec:  src.Codec(),
		blocks: src.DocBlocks(t),
		total:  src.DocBytes(t),
		stats:  stats,
		idx:    -1,
	}
}

// load fetches and decodes block i, accounting skipped blocks when the
// cursor jumps forward past unread ones.
func (c *docCursor) load(i int) error {
	if c.idx >= 0 && i > c.idx+1 {
		c.stats.BlocksSkipped += int64(i - c.idx - 1)
	}
	ref := c.blocks[i]
	end := c.total
	if i+1 < len(c.blocks) {
		end = int64(c.blocks[i+1].Off)
	}
	n := end - int64(ref.Off)
	if int64(cap(c.buf)) < n {
		c.buf = make([]byte, n)
	}
	buf := c.buf[:n]
	if err := c.src.ReadDocRange(c.term, int64(ref.Off), buf); err != nil {
		return err
	}
	var cur index.BlockCursor
	cur.Reset(c.codec, buf, int(ref.Count))
	if c.decoded == nil {
		c.decoded = make([]workload.Posting, 0, index.BlockLen)
	}
	c.decoded = c.decoded[:0]
	for {
		p, ok := cur.Next()
		if !ok {
			break
		}
		c.decoded = append(c.decoded, p)
	}
	if err := cur.Err(); err != nil {
		return err
	}
	c.stats.BlocksRead++
	c.idx = i
	c.pos = 0
	return nil
}

// next streams the list in doc order, returning ok=false at the end.
func (c *docCursor) next() (workload.Posting, bool, error) {
	for c.idx < 0 || c.pos >= len(c.decoded) {
		if c.idx+1 >= len(c.blocks) {
			return workload.Posting{}, false, nil
		}
		if err := c.load(c.idx + 1); err != nil {
			return workload.Posting{}, false, err
		}
	}
	p := c.decoded[c.pos]
	c.pos++
	return p, true, nil
}

// find reports whether doc appears in the list, returning its tf. Probes
// must come in ascending doc order (candidates are sorted), letting the
// cursor only move forward.
func (c *docCursor) find(doc uint32) (uint16, bool, error) {
	// Locate the block that could contain doc: the first whose MaxDoc is
	// >= doc (directory MaxDocs ascend on doc-sorted lists).
	lo := c.idx
	if lo < 0 {
		lo = 0
	}
	i := lo + sort.Search(len(c.blocks)-lo, func(k int) bool { return c.blocks[lo+k].MaxDoc >= doc })
	if i >= len(c.blocks) {
		return 0, false, nil // doc beyond the whole list
	}
	if i != c.idx {
		if err := c.load(i); err != nil {
			return 0, false, err
		}
	}
	d := c.decoded
	j := sort.Search(len(d), func(k int) bool { return d[k].Doc >= doc })
	if j < len(d) && d[j].Doc == doc {
		return d[j].TF, true, nil
	}
	return 0, false, nil
}

// readAll streams the whole list through the cursor.
func (c *docCursor) readAll() ([]workload.Posting, error) {
	out := make([]workload.Posting, 0, c.src.TermDF(c.term))
	for {
		p, ok, err := c.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, p)
	}
}

// Execute processes q with AND semantics and returns the top-K matches
// ranked by summed tf·idf.
func (e *Conjunctive) Execute(q workload.Query) (*Result, ConjStats, error) {
	var stats ConjStats
	if len(q.Terms) == 0 {
		return &Result{QueryID: q.ID}, stats, nil
	}

	terms := make([]workload.TermID, len(q.Terms))
	copy(terms, q.Terms)
	sortByDF(e.src, terms)

	numDocs := e.src.NumDocs()
	weights := make(map[workload.TermID]float64, len(terms))
	for _, t := range terms {
		weights[t] = idf(numDocs, e.src.TermDF(t))
	}

	// Candidates: (doc, partial score) from the smallest list — or from
	// the cached/computed intersection of the two smallest lists.
	type candidate struct {
		doc   uint32
		score float64
	}
	var candidates []candidate
	rest := terms[1:]

	if len(terms) >= 2 {
		pair := intersect.MakePair(terms[0], terms[1])
		ipostings, hit, err := e.pairIntersection(pair, &stats)
		if err != nil {
			return nil, stats, err
		}
		stats.IntersectionHit = hit
		wa, wb := weights[pair.A], weights[pair.B]
		candidates = make([]candidate, len(ipostings))
		for i, p := range ipostings {
			candidates[i] = candidate{
				doc:   p.Doc,
				score: float64(p.TFA)*wa + float64(p.TFB)*wb,
			}
		}
		rest = terms[2:]
	} else {
		postings, err := newDocCursor(e.src, terms[0], &stats).readAll()
		if err != nil {
			return nil, stats, err
		}
		w := weights[terms[0]]
		candidates = make([]candidate, len(postings))
		for i, p := range postings {
			candidates[i] = candidate{doc: p.Doc, score: float64(p.TF) * w}
		}
	}

	// Filter the candidates through each remaining list with skip probes.
	for _, t := range rest {
		if len(candidates) == 0 {
			break
		}
		cur := newDocCursor(e.src, t, &stats)
		w := weights[t]
		kept := candidates[:0]
		for _, c := range candidates {
			tf, ok, err := cur.find(c.doc)
			if err != nil {
				return nil, stats, err
			}
			if ok {
				c.score += float64(tf) * w
				kept = append(kept, c)
			}
		}
		candidates = kept
	}

	stats.Matches = int64(len(candidates))
	top := newTopK(e.cfg.TopK)
	for _, c := range candidates {
		top.offer(c.doc, c.score)
	}
	if e.cfg.Clock != nil {
		e.cfg.Clock.AdvanceAttr(time.Duration(len(candidates))*e.cfg.PerPostingCost, simclock.CompCPUIntersect)
	}
	return &Result{QueryID: q.ID, Docs: top.ranked()}, stats, nil
}

// pairIntersection returns the (doc, tfA, tfB) intersection of two terms,
// from the cache when present, computing and caching it otherwise.
func (e *Conjunctive) pairIntersection(pair intersect.Pair, stats *ConjStats) ([]intersect.Posting, bool, error) {
	if e.icache != nil {
		if ip, ok := e.icache.Get(pair); ok {
			return ip, true, nil
		}
	}
	a, err := newDocCursor(e.src, pair.A, stats).readAll()
	if err != nil {
		return nil, false, err
	}
	b, err := newDocCursor(e.src, pair.B, stats).readAll()
	if err != nil {
		return nil, false, err
	}
	ip := intersect.Intersect(a, b)
	if e.icache != nil {
		e.icache.Put(pair, ip)
	}
	return ip, false, nil
}
