// Package engine implements the retrieval side of the search engine: top-K
// query processing over impact-ordered posting lists with early
// termination, producing the fixed-size result entries the paper's result
// cache stores (§VI: K = 50 documents of ~400 B each ≈ 20 KB per entry).
//
// The engine is storage-agnostic: it pulls list bytes through a ListSource,
// which is either the raw on-device index (uncached baseline) or the
// two-level cache manager. Because impact-ordered lists let query
// processing stop after a prefix, the engine's reads exhibit exactly the
// partial-list utilization (Fig 3a) and skipped-read patterns (§III) the
// paper's policies exploit.
//
// The read side is zero-copy: chunks of whole encoded blocks come straight
// from the source and index.BlockCursor's bulk kernel decodes them one block
// at a time into the engine's fixed doc and tf columns — no
// []workload.Posting is materialized. Scores accumulate in a sparse set
// indexed by doc ID behind a one-bit-per-document seen set (see accumulator),
// so a posting that cannot change the answer costs one bit test and any other
// an array slot, not a hash probe. Chunking is measured in blocks (posting
// counts), not encoded bytes, so scoring, early termination, and therefore
// results are byte-identical across codecs; only the byte accounting
// (BytesRead, Utilization) reflects each codec's encoded size.
package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"hybridstore/internal/index"
	"hybridstore/internal/simclock"
	"hybridstore/internal/workload"
)

// ListSource supplies encoded posting-list bytes and their block metadata.
// index.Index satisfies it, and the cache manager wraps one.
type ListSource interface {
	// ListBytes returns the encoded size of term t's list.
	ListBytes(t workload.TermID) int64
	// TermDF returns term t's document frequency.
	TermDF(t workload.TermID) int64
	// Codec identifies the block encoding of the list payloads.
	Codec() index.CodecID
	// ListBlocks returns term t's block directory (in-memory metadata; no
	// device cost). The engine must not mutate the returned slice.
	ListBlocks(t workload.TermID) []index.BlockRef
	// ReadListRange fills p with encoded list bytes starting at offset off.
	ReadListRange(t workload.TermID, off int64, p []byte) error
	// NumDocs returns the collection size (for IDF weighting).
	NumDocs() int64
}

// Config tunes query processing.
type Config struct {
	// TopK is the number of results per query (paper: 50).
	TopK int
	// ChunkBytes sizes the list read granularity: lists are consumed
	// ChunkBytes/(BlockLen·PostingSize) whole blocks at a time (at least
	// one) until termination. Defaults to 8 KiB.
	ChunkBytes int
	// TerminationFrac controls early termination: a list is abandoned when
	// the best possible remaining contribution falls below this fraction
	// of the current K-th score. Higher = more aggressive truncation.
	// Defaults to 0.15.
	TerminationFrac float64
	// DocResultBytes is the serialized size of one result document (URL,
	// snippet, date...; paper: ~400 B).
	DocResultBytes int
	// Clock, when non-nil, is charged PerPostingCost of simulated CPU time
	// for every posting scored, so compute time contributes to response
	// time alongside device time.
	Clock *simclock.Clock
	// PerPostingCost is the scoring cost per posting (default 20 ns).
	PerPostingCost time.Duration
}

// DefaultConfig returns the paper's evaluation settings.
func DefaultConfig() Config {
	return Config{TopK: 50, ChunkBytes: 8 << 10, TerminationFrac: 0.15, DocResultBytes: 400}
}

func (c *Config) fillDefaults() {
	if c.TopK <= 0 {
		c.TopK = 50
	}
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = 8 << 10
	}
	if c.TerminationFrac <= 0 {
		c.TerminationFrac = 0.15
	}
	if c.DocResultBytes <= 0 {
		c.DocResultBytes = 400
	}
	if c.PerPostingCost <= 0 {
		c.PerPostingCost = 20 * time.Nanosecond
	}
}

// chunkBlocks returns how many whole blocks one chunk read covers — a
// posting-count granularity, deliberately independent of the codec so that
// termination points (and results) do not shift with compression.
func (c *Config) chunkBlocks() int {
	n := c.ChunkBytes / (index.BlockLen * index.PostingSize)
	if n < 1 {
		n = 1
	}
	return n
}

// ScoredDoc is one ranked result.
type ScoredDoc struct {
	Doc   uint32
	Score float32
}

// Result is a query's result entry: the cacheable unit of the result cache.
type Result struct {
	QueryID uint64
	Docs    []ScoredDoc
}

// TermStats describes how much of one term's list a query consumed.
type TermStats struct {
	Term      workload.TermID
	ListBytes int64
	BytesRead int64
	// Utilization is BytesRead/ListBytes — the measured PU of Fig 3(a).
	Utilization float64
	Terminated  bool // true when early termination cut the list short
}

// ExecStats summarizes one query execution.
type ExecStats struct {
	Terms          []TermStats
	PostingsScored int64
	BytesRead      int64
}

// Engine executes queries against a ListSource.
//
// An Engine reuses internal scratch state (scan buffer, score accumulator,
// top-K heap, block cursor) across Execute calls to keep the steady-state
// query path allocation-free; it is therefore not safe for concurrent use.
// Give each goroutine its own Engine.
type Engine struct {
	src ListSource
	cfg Config

	codec       index.CodecID
	chunkBlocks int

	// Per-Execute scratch, lazily allocated and reused.
	scanBuf []byte // chunk read buffer, grown to the largest chunk seen
	cur     index.BlockCursor
	acc     accumulator
	top     *topK
	terms   []workload.TermID

	// One decoded block: doc IDs and term frequencies.
	blockDocs [index.BlockLen]uint32
	blockTFs  [index.BlockLen]uint16
}

// accumulator is the per-query score table: a sparse set (Briggs & Torczon)
// over doc IDs behind a bit set of the documents this query has met.
// slot[doc] indexes the compact docs/vals columns, and doc is a member iff
// slot[doc] < len(docs) && docs[slot[doc]] == doc — so whatever earlier
// queries left in slot is harmless, and reset truncates the columns without
// clearing slot. seen holds one bit per document and is what a posting's
// random access lands in (NumDocs/8 bytes stays cached where the 4 B ×
// NumDocs of slot does not): a clear bit means "not a member" without
// reading slot, and lets scoreBlock drop a posting that cannot change the
// answer without writing it either. A set bit on a non-member is a document
// scoreBlock dropped. Memory is 4 B × NumDocs for slot, NumDocs/8 B for seen,
// plus 12 B per member of the largest query.
type accumulator struct {
	seen []uint64
	slot []uint32
	docs []uint32
	vals []float64
}

// reset empties the set for a collection of numDocs documents. slot and seen
// are allocated on first use and kept; only seen is cleared. The bits past
// numDocs in its last word stay set, so a doc ID there takes scoreBlock's
// member path and meets the range check against slot.
func (a *accumulator) reset(numDocs int64) error {
	if int64(len(a.slot)) != numDocs {
		if numDocs < 0 || numDocs > 1<<32 {
			return fmt.Errorf("engine: collection of %d documents is not addressable by 32-bit doc IDs", numDocs)
		}
		a.slot = make([]uint32, numDocs)
		a.seen = make([]uint64, (numDocs+63)/64)
	} else {
		clear(a.seen)
	}
	if r := numDocs % 64; r != 0 {
		a.seen[len(a.seen)-1] = ^uint64(0) << r
	}
	a.docs, a.vals = a.docs[:0], a.vals[:0]
	return nil
}

// New builds an engine over src.
func New(src ListSource, cfg Config) *Engine {
	cfg.fillDefaults()
	return &Engine{src: src, cfg: cfg, codec: src.Codec(), chunkBlocks: cfg.chunkBlocks()}
}

// Config returns the engine's effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// idf returns the inverse-document-frequency weight for a term with
// document frequency df.
func idf(numDocs, df int64) float64 {
	if df <= 0 {
		return 0
	}
	return math.Log2(1 + float64(numDocs)/float64(df))
}

// sortByDF puts terms in the order both engines process them: increasing
// document frequency, ties by term ID.
func sortByDF(src interface {
	TermDF(workload.TermID) int64
}, terms []workload.TermID) {
	slices.SortFunc(terms, func(a, b workload.TermID) int {
		if c := cmp.Compare(src.TermDF(a), src.TermDF(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// Execute processes q and returns its top-K result plus execution stats.
// Terms are processed in increasing document-frequency order (ties by term
// ID) so short lists establish the score threshold before long lists are
// touched, maximizing early-termination effect. Ordering by DF rather than
// encoded bytes keeps the processing order codec-invariant.
func (e *Engine) Execute(q workload.Query) (*Result, ExecStats, error) {
	var stats ExecStats
	e.terms = append(e.terms[:0], q.Terms...)
	terms := e.terms
	sortByDF(e.src, terms)

	numDocs := e.src.NumDocs()
	if err := e.acc.reset(numDocs); err != nil {
		return nil, stats, err
	}
	if e.top == nil {
		e.top = newTopK(e.cfg.TopK)
	} else {
		e.top.reset()
	}
	top := e.top
	stats.Terms = make([]TermStats, 0, len(terms))
	for i, t := range terms {
		ts, err := e.scanList(t, idf(numDocs, e.src.TermDF(t)), i == len(terms)-1, top, &stats)
		if err != nil {
			return nil, stats, err
		}
		stats.Terms = append(stats.Terms, ts)
		stats.BytesRead += ts.BytesRead
	}

	return &Result{QueryID: q.ID, Docs: top.ranked()}, stats, nil
}

// scanList consumes term t's impact-ordered list chunk by chunk (whole
// encoded blocks), decoding and scoring one block at a time, until the list
// ends or early termination fires. last says no list is scanned after this
// one (see scoreBlock).
func (e *Engine) scanList(t workload.TermID, w float64, last bool, top *topK, stats *ExecStats) (TermStats, error) {
	total := e.src.ListBytes(t)
	blocks := e.src.ListBlocks(t)
	ts := TermStats{Term: t, ListBytes: total}
	for bi := 0; bi < len(blocks); bi += e.chunkBlocks {
		bj := bi + e.chunkBlocks
		if bj > len(blocks) {
			bj = len(blocks)
		}
		chunkOff := int64(blocks[bi].Off)
		chunkEnd := total
		if bj < len(blocks) {
			chunkEnd = int64(blocks[bj].Off)
		}
		n := chunkEnd - chunkOff
		if int64(len(e.scanBuf)) < n {
			e.scanBuf = make([]byte, n)
		}
		buf := e.scanBuf[:n]
		if err := e.src.ReadListRange(t, chunkOff, buf); err != nil {
			return ts, err
		}
		ts.BytesRead += n

		scored := 0
		var lastTF uint16
		for k := bi; k < bj; k++ {
			blockOff := int64(blocks[k].Off) - chunkOff
			blockEnd := n
			if k+1 < bj {
				blockEnd = int64(blocks[k+1].Off) - chunkOff
			}
			e.cur.Reset(e.codec, buf[blockOff:blockEnd], int(blocks[k].Count))
			// A directory entry claiming more than BlockLen postings is
			// drained in BlockLen batches rather than trusted.
			for {
				cnt, err := e.cur.Decode(&e.blockDocs, &e.blockTFs)
				if err != nil {
					return ts, err
				}
				if cnt == 0 {
					break
				}
				if err := e.scoreBlock(t, w, cnt, last, top); err != nil {
					return ts, err
				}
				lastTF = e.blockTFs[cnt-1]
				scored += cnt
				if cnt < index.BlockLen {
					break
				}
			}
		}
		stats.PostingsScored += int64(scored)
		if e.cfg.Clock != nil {
			e.cfg.Clock.AdvanceAttr(time.Duration(scored)*e.cfg.PerPostingCost, simclock.CompCPUIntersect)
		}

		// Early termination: remaining postings have TF no larger than the
		// last one seen (impact order). If even that bound cannot move the
		// top-K meaningfully, abandon the tail.
		if top.full() && scored > 0 {
			bound := float64(lastTF) * w
			if bound < e.cfg.TerminationFrac*top.min() {
				ts.Terminated = true
				break
			}
		}
	}
	if total > 0 {
		ts.Utilization = float64(ts.BytesRead) / float64(total)
	}
	return ts, nil
}

// scoreBlock adds w·tf to the score of each of the n postings decoded into
// the block scratch and offers the new totals to top, in posting order.
//
// A document met for the first time in the query's last list, with a full
// heap and w·tf at or below the K-th score, is marked seen and dropped: no
// slot access, no insert, no offer. That is exact for the reason offer's
// early reject is — its total is final (no later list can add to it) and
// the K-th score only grows, so it can never be offered and its entry would
// never be read again. Every other first meeting inserts without reading
// slot; only a document already seen pays the sparse set's random access.
//
// Doc IDs come off a device. One whose seen word does not exist, or whose
// preset bit (see reset) leads to the range check, is outside the collection;
// one that is seen but not a member was dropped above and is repeated by the
// same scan — the map the engine used to have would have summed the two
// postings, so the query fails rather than rank differently.
func (e *Engine) scoreBlock(t workload.TermID, w float64, n int, last bool, top *topK) error {
	a := &e.acc
	docs, tfs := e.blockDocs[:n], e.blockTFs[:n]
	seen, slot := a.seen, a.slot

	// Room for n new members up front, so an insert is three stores.
	m := len(a.docs)
	adocs := slices.Grow(a.docs, n)[:m+n]
	avals := slices.Grow(a.vals, n)[:m+n]
	// offer's early reject, evaluated here: exact for the reason given there.
	full, kth := top.full(), top.min()
	for i, d := range docs {
		s := float64(tfs[i]) * w
		word, bit := d>>6, uint64(1)<<(d&63)
		if uint64(word) >= uint64(len(seen)) {
			return errDocOutsideCollection(t, d, len(slot))
		}
		if sw := seen[word]; sw&bit == 0 {
			seen[word] = sw | bit
			if last && full && s <= kth {
				continue
			}
			slot[d] = uint32(m)
			adocs[m], avals[m] = d, s
			m++
		} else {
			if uint64(d) >= uint64(len(slot)) {
				return errDocOutsideCollection(t, d, len(slot))
			}
			j := slot[d]
			if int(j) >= m || adocs[j] != d {
				return errDroppedDocRepeated(t, d)
			}
			s += avals[j]
			avals[j] = s
		}
		if !full || s > kth {
			top.offer(d, s)
			full, kth = top.full(), top.min()
		}
	}
	a.docs, a.vals = adocs[:m], avals[:m]
	return nil
}

// scoreBlock's errors are built out of line: they are cold, and their fmt
// arguments would otherwise be charged to the hot loop's function.

//go:noinline
func errDocOutsideCollection(t workload.TermID, d uint32, numDocs int) error {
	return fmt.Errorf("engine: term %d: posting for doc %d outside the collection (NumDocs %d)", t, d, numDocs)
}

//go:noinline
func errDroppedDocRepeated(t workload.TermID, d uint32) error {
	return fmt.Errorf("engine: term %d: doc %d repeated in the list after its first posting was dropped as unable to reach the top-K", t, d)
}

// topK maintains the K best (doc, score) pairs seen so far. Scores for a
// document may be offered repeatedly as later lists add to its total; the
// structure keeps the latest offer per document.
//
// The min-heap is hand-rolled rather than container/heap so offers don't
// box entries through interface{} on every push/fix; the sift order is
// identical to the standard library's.
type topK struct {
	k    int
	heap []scoredRef
}

type scoredRef struct {
	doc   uint32
	score float64
}

func newTopK(k int) *topK {
	return &topK{k: k, heap: make([]scoredRef, 0, k)}
}

// reset empties the structure for reuse, keeping its allocation.
func (t *topK) reset() { t.heap = t.heap[:0] }

func (t *topK) full() bool { return len(t.heap) >= t.k }

// min returns the lowest score in the current top-K (0 if not full).
func (t *topK) min() float64 {
	if len(t.heap) == 0 {
		return 0
	}
	return t.heap[0].score
}

func (t *topK) less(i, j int) bool { return t.heap[i].score < t.heap[j].score }

func (t *topK) swap(i, j int) { t.heap[i], t.heap[j] = t.heap[j], t.heap[i] }

func (t *topK) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !t.less(j, i) {
			break
		}
		t.swap(i, j)
		j = i
	}
}

func (t *topK) down(i0 int) bool {
	n := len(t.heap)
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && t.less(j2, j1) {
			j = j2 // = 2*i + 2  // right child
		}
		if !t.less(j, i) {
			break
		}
		t.swap(i, j)
		i = j
	}
	return i > i0
}

func (t *topK) fix(i int) {
	if !t.down(i) {
		t.up(i)
	}
}

// offer records doc's new total. Totals only grow (every posting adds
// tf·idf ≥ 0), which makes the first test exact, not a heuristic: once the
// heap is full a member's stored score is at least the minimum and its next
// total is no smaller, so an offer at or below the minimum is either a
// non-member that cannot enter or a member whose score did not change.
// Past that test — the rare path — members are found by scanning the ≤ K
// heap entries.
func (t *topK) offer(doc uint32, score float64) {
	full := t.full()
	if full && score <= t.heap[0].score {
		return
	}
	for i := range t.heap {
		if t.heap[i].doc == doc {
			t.heap[i].score = score
			t.fix(i)
			return
		}
	}
	if !full {
		t.heap = append(t.heap, scoredRef{doc: doc, score: score})
		t.up(len(t.heap) - 1)
		return
	}
	t.heap[0] = scoredRef{doc: doc, score: score}
	t.fix(0)
}

// ranked returns the top-K docs in descending score order (ties by doc id).
func (t *topK) ranked() []ScoredDoc {
	out := make([]ScoredDoc, len(t.heap))
	for i, e := range t.heap {
		out[i] = ScoredDoc{Doc: e.doc, Score: float32(e.score)}
	}
	slices.SortFunc(out, func(a, b ScoredDoc) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return cmp.Compare(a.Doc, b.Doc)
	})
	return out
}
