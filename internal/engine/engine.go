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
// from the source, and index.BlockCursor's bulk kernel hands them out one
// block at a time as packed 6-byte postings — a raw block scored where it
// lies in the chunk, a gvarint block decoded into one fixed scratch — so no
// []workload.Posting is materialized. Scores accumulate in one compact
// member column behind a one-bit-per-document seen set (see accumulator), so
// a posting that cannot change the answer costs one bit test and any other a
// walk of at most 64 members, not a hash probe. Chunking is measured in
// blocks (posting counts), not encoded bytes, so scoring, early termination,
// and therefore results are byte-identical across codecs; only the byte
// accounting (BytesRead, Utilization) reflects each codec's encoded size.
package engine

import (
	"bytes"
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
	// Clock, when non-nil, is charged perPostingCost of simulated CPU time
	// for every posting scored, so compute time contributes to response
	// time alongside device time.
	Clock *simclock.Clock
}

// perPostingCost is the simulated CPU time of scoring one posting.
const perPostingCost = 20 * time.Nanosecond

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

	// Where the cursor decodes a block that is not already packed postings.
	scratch [index.BlockLen * index.PostingSize]byte

	memo Memo       // nil unless UseMemo: Execute replays instead of scoring
	rec  *Execution // non-nil while Record runs: scanList appends its chunks
}

// accumulator is the per-query score table: a bit set of the documents this
// query has met, in front of one column of the members, the documents that
// have a score. seen holds one bit per document and is what a posting's
// random access lands in: a clear bit means "not a member" and lets
// insertOrDrop drop a posting that cannot change the answer without touching
// anything else. A set bit on a non-member is a document insertOrDrop dropped.
//
// Members are chained per seen word: head[w] is the index in mem of the
// member last inserted in word w, and each member's next is what head[w] was
// before its insert. A walk from head[w] accepts entry j only if j < len(mem)
// (so j is a member of this query) and mem[j].doc lies in w, and follows next
// only while it decreases. Whatever an earlier query left in head[w], or in
// the next of this query's first member in w, fails that test: a member of
// this query in w at a lower index would have overwritten head[w] when it was
// inserted. So a walk visits only w's members, at most 64, and reset clears
// only seen. Memory is NumDocs/8 B for seen, NumDocs/16 B for head, plus 16 B
// per member of the largest query.
type accumulator struct {
	numDocs int64
	seen    []uint64
	head    []uint32
	mem     []member
}

// member is one document with a score in the current query.
type member struct {
	doc, next uint32
	val       float64
}

// reset empties the set for a collection of numDocs documents. seen and head
// are allocated on first use and kept; only seen is cleared. The bits past
// numDocs in its last word stay set, so a doc ID there takes scoreRare's
// member path and meets the range check there.
func (a *accumulator) reset(numDocs int64) error {
	if numDocs != a.numDocs {
		if numDocs < 0 || numDocs > 1<<32 {
			return fmt.Errorf("engine: collection of %d documents is not addressable by 32-bit doc IDs", numDocs)
		}
		a.numDocs = numDocs
		a.seen = make([]uint64, (numDocs+63)/64)
		a.head = make([]uint32, len(a.seen))
	} else {
		clear(a.seen)
	}
	if r := numDocs % 64; r != 0 {
		a.seen[len(a.seen)-1] = ^uint64(0) << r
	}
	a.mem = a.mem[:0]
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
	if e.memo != nil {
		return e.replay(q)
	}
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

// An Execution is the record of one Execute over an index image: what it
// returned, and for each chunk it read, the range and the postings it
// scored. A Memo holds them.
type Execution struct {
	Docs   []ScoredDoc
	Stats  ExecStats
	Chunks []Chunk
}

// Chunk is one ReadListRange of an execution: the index of its term in
// Stats.Terms, the postings scored from it, and the range of the list read.
type Chunk struct {
	Term, Scored int32
	Off, Len     int64
}

// A Memo holds the executions of engines over one index image under one
// TopK, ChunkBytes and TerminationFrac, each computed once.
type Memo interface {
	// Recall returns the execution of terms, in the order Execute processes
	// them, recording it on first sight.
	Recall(terms []workload.TermID) (*Execution, error)
	// ListRange returns the image's n bytes of term t's list at offset off,
	// or nil if the range is outside the list.
	ListRange(t workload.TermID, off, n int64) []byte
}

// UseMemo makes Execute replay m's executions instead of scoring. m must
// hold executions over the image the engine's source serves, under the
// engine's TopK, ChunkBytes and TerminationFrac.
func (e *Engine) UseMemo(m Memo) { e.memo = m }

// Memo returns the memo UseMemo attached, or nil.
func (e *Engine) Memo() Memo { return e.memo }

// Record runs terms, sorted as Execute sorts them, on an engine without a
// memo and returns the execution.
func (e *Engine) Record(terms []workload.TermID) (*Execution, error) {
	x := &Execution{}
	e.rec = x
	res, stats, err := e.Execute(workload.Query{Terms: terms})
	e.rec = nil
	if err != nil {
		return nil, err
	}
	x.Docs, x.Stats = res.Docs, stats
	return x, nil
}

// replay is Execute with a memo. It issues the recorded execution's reads
// through the engine's own source, in order, fails on any bytes that differ
// from the image, charges each chunk's scoring time as Execute does, and
// returns a copy of the recorded answer. A read error returns what Execute
// returns at that read: no result, the stats of the terms finished and the
// postings scored so far.
func (e *Engine) replay(q workload.Query) (*Result, ExecStats, error) {
	var stats ExecStats
	e.terms = append(e.terms[:0], q.Terms...)
	sortByDF(e.src, e.terms)
	x, err := e.memo.Recall(e.terms)
	if err != nil {
		return nil, stats, err
	}
	for _, c := range x.Chunks {
		t := x.Stats.Terms[c.Term].Term
		if int64(len(e.scanBuf)) < c.Len {
			e.scanBuf = make([]byte, c.Len)
		}
		buf := e.scanBuf[:c.Len]
		if err := e.src.ReadListRange(t, c.Off, buf); err != nil {
			stats.Terms = slices.Clone(x.Stats.Terms[:c.Term])
			for _, ts := range stats.Terms {
				stats.BytesRead += ts.BytesRead
			}
			return nil, stats, err
		}
		if !bytes.Equal(buf, e.memo.ListRange(t, c.Off, c.Len)) {
			return nil, stats, errReadDiffers(e.terms, t, c.Off, c.Len)
		}
		stats.PostingsScored += int64(c.Scored)
		if e.cfg.Clock != nil {
			e.cfg.Clock.AdvanceAttr(time.Duration(c.Scored)*perPostingCost, simclock.CompCPUIntersect)
		}
	}
	stats.Terms = slices.Clone(x.Stats.Terms)
	stats.BytesRead = x.Stats.BytesRead
	return &Result{QueryID: q.ID, Docs: slices.Clone(x.Docs)}, stats, nil
}

//go:noinline
func errReadDiffers(terms []workload.TermID, t workload.TermID, off, n int64) error {
	return fmt.Errorf("engine: query %v: term %d: the %d bytes read at offset %d differ from the index image", terms, t, n, off)
}

// scanList consumes term t's impact-ordered list chunk by chunk (whole
// encoded blocks), decoding and scoring one block at a time, until the list
// ends or early termination fires. last says no list is scanned after this
// one (see insertOrDrop).
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
				recs, err := e.cur.Decode(&e.scratch)
				if err != nil {
					return ts, err
				}
				if len(recs) == 0 {
					break
				}
				if err := e.scoreBlock(t, w, recs, last, top); err != nil {
					return ts, err
				}
				cnt := len(recs) / index.PostingSize
				lastTF = index.DecodePosting(recs[len(recs)-index.PostingSize:]).TF
				scored += cnt
				if cnt < index.BlockLen {
					break
				}
			}
		}
		stats.PostingsScored += int64(scored)
		if e.rec != nil {
			e.rec.Chunks = append(e.rec.Chunks, Chunk{Term: int32(len(stats.Terms)), Scored: int32(scored), Off: chunkOff, Len: n})
		}
		if e.cfg.Clock != nil {
			e.cfg.Clock.AdvanceAttr(time.Duration(scored)*perPostingCost, simclock.CompCPUIntersect)
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

// scoreBlock adds w·tf to the score of each posting of recs, packed as
// index.DecodePosting reads them, and offers the new totals to top, in
// posting order.
//
// It splits the postings by what they need. At least 98.9 % of them (DESIGN
// §13) meet a document for the first time in the query with w·tf at or below
// kth, the K-th score of a full heap and −1 while the heap has room (see
// topK.kth). Those are insertOrDrop's: it sets the seen bit and inserts the
// document at its word's chain head, or in the query's last list drops it.
// Every other posting — a document already seen, a first meeting that beats
// kth, a doc ID outside the collection — goes to scoreRare, which returns kth
// refreshed after its offer.
func (e *Engine) scoreBlock(t workload.TermID, w float64, recs []byte, last bool, top *topK) error {
	a := &e.acc
	// Room for every posting to become a member, so an insert is two stores.
	n, m := len(recs)/index.PostingSize, len(a.mem)
	a.mem = slices.Grow(a.mem, n)[:m+n]
	kth := top.kth()
	var err error
	for {
		if recs, m = a.insertOrDrop(recs, w, kth, last, m); len(recs) < index.PostingSize {
			break
		}
		p := index.DecodePosting(recs)
		if m, kth, err = e.scoreRare(t, p.Doc, float64(p.TF)*w, m, top); err != nil {
			break
		}
		recs = recs[index.PostingSize:]
	}
	a.mem = a.mem[:m]
	return err
}

// insertOrDrop is scoreBlock's loop. While the next posting of recs meets a
// document of the collection for the first time in the query and its score
// s = w·tf is at or below kth, it sets the document's seen bit and, unless
// the list is the query's last, inserts it as member m at its word's chain
// head without reading the chain. It returns at the first posting it does
// not take, with the new member count.
//
// In the last list such a posting is dropped: no insert, no offer. That is
// exact for the reason offer's early reject is — its total is final (no later
// list can add to it) and the K-th score only grows, so it can never be
// offered and its entry would never be read again.
//
// The loop calls nothing. Go's register ABI keeps no register across a call,
// so a call anywhere in it would make its state spill around the call, and
// the compiler puts part of that traffic on every posting. It stays out of
// line for the same reason: inlined, its state would share scoreBlock's.
//
//go:noinline
func (a *accumulator) insertOrDrop(recs []byte, w, kth float64, last bool, m int) ([]byte, int) {
	seen := a.seen
	head := a.head[:len(seen)]
	mem := a.mem
	for ; len(recs) >= index.PostingSize; recs = recs[index.PostingSize:] {
		p := index.DecodePosting(recs)
		d, s := p.Doc, float64(p.TF)*w
		word, bit := d>>6, uint64(1)<<(d&63)
		if uint64(word) >= uint64(len(seen)) {
			break
		}
		sw := seen[word]
		if sw&bit != 0 || s > kth {
			break
		}
		seen[word] = sw | bit
		if !last {
			mem[m] = member{doc: d, next: head[word], val: s}
			head[word] = uint32(m)
			m++
		}
	}
	return recs, m
}

// scoreRare scores the posting of document d with score s = w·tf of term t
// that insertOrDrop did not take, with a.mem[:m] the query's members and room
// for one more. It returns the new member count and kth after its offer.
//
// Doc IDs come off a device. One whose seen word does not exist, or whose
// preset bit (see reset) leads to the range check, is outside the collection;
// one that is seen but not found on its word's chain was dropped by
// insertOrDrop and is repeated by the same scan — the map the engine used to
// have would have summed the two postings, so the query fails rather than
// rank differently.
//
//go:noinline
func (e *Engine) scoreRare(t workload.TermID, d uint32, s float64, m int, top *topK) (int, float64, error) {
	a := &e.acc
	seen, mem := a.seen, a.mem
	head := a.head[:len(seen)]
	numDocs := uint64(a.numDocs)
	word, bit := d>>6, uint64(1)<<(d&63)
	if uint64(word) >= uint64(len(seen)) {
		return m, 0, errDocOutsideCollection(t, d, numDocs)
	}
	if sw := seen[word]; sw&bit == 0 {
		seen[word] = sw | bit
		mem[m] = member{doc: d, next: head[word], val: s}
		head[word] = uint32(m)
		m++
	} else {
		if uint64(d) >= numDocs {
			return m, 0, errDocOutsideCollection(t, d, numDocs)
		}
		j, lim := head[word], uint32(m)
		for j < lim && mem[j].doc != d && mem[j].doc>>6 == word {
			lim, j = j, mem[j].next
		}
		if j >= lim || mem[j].doc != d {
			return m, 0, errDroppedDocRepeated(t, d)
		}
		s += mem[j].val
		mem[j].val = s
	}
	if s > top.kth() {
		top.offer(d, s)
	}
	return m, top.kth(), nil
}

// scoreRare's errors are built out of line: they are cold, and their fmt
// arguments would otherwise be charged to its function.

//go:noinline
func errDocOutsideCollection(t workload.TermID, d uint32, numDocs uint64) error {
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
	keys []uint64 // ranked's sort keys, kept for the next query
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

// kth returns the score an offer must beat to change the heap: its minimum
// once it is full, −1 while it has room, which every score (≥ 0) beats.
func (t *topK) kth() float64 {
	if !t.full() {
		return -1
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

// ranked returns the top-K docs in descending score order (ties by doc id),
// sorting one integer key per doc: the complement of its float32 score bits
// above the doc. Scores are finite and ≥ 0, so their bits order as they do
// and the keys' ascending order is exactly that one (DESIGN §13).
func (t *topK) ranked() []ScoredDoc {
	keys := t.keys[:0]
	for _, e := range t.heap {
		keys = append(keys, uint64(^math.Float32bits(float32(e.score)))<<32|uint64(e.doc))
	}
	slices.Sort(keys)
	t.keys = keys
	out := make([]ScoredDoc, len(keys))
	for i, key := range keys {
		out[i] = ScoredDoc{Doc: uint32(key), Score: math.Float32frombits(^uint32(key >> 32))}
	}
	return out
}
