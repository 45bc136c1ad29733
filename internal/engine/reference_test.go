package engine

import (
	"sort"
	"time"

	"hybridstore/internal/index"
	"hybridstore/internal/simclock"
	"hybridstore/internal/workload"
)

// refEngine is the engine as it was before the sparse-set accumulator: a Go
// map per query for the scores, doc-at-a-time decoding, and a top-K heap
// that finds its members through a doc → position map and has no early
// reject. It is slow and obviously right, and exists so the differential
// tests can require the real engine to agree with it bit for bit.
type refEngine struct {
	src         ListSource
	cfg         Config
	chunkBlocks int
}

func newRefEngine(src ListSource, cfg Config) *refEngine {
	cfg.fillDefaults()
	return &refEngine{src: src, cfg: cfg, chunkBlocks: cfg.chunkBlocks()}
}

func (e *refEngine) Execute(q workload.Query) (*Result, ExecStats, error) {
	var stats ExecStats
	scores := make(map[uint32]float64)
	terms := append([]workload.TermID(nil), q.Terms...)
	sort.Slice(terms, func(i, j int) bool {
		di, dj := e.src.TermDF(terms[i]), e.src.TermDF(terms[j])
		if di != dj {
			return di < dj
		}
		return terms[i] < terms[j]
	})
	numDocs := e.src.NumDocs()
	top := &refTopK{k: e.cfg.TopK, index: make(map[uint32]int)}
	stats.Terms = make([]TermStats, 0, len(terms))
	for _, t := range terms {
		ts, err := e.scanList(t, idf(numDocs, e.src.TermDF(t)), scores, top, &stats)
		if err != nil {
			return nil, stats, err
		}
		stats.Terms = append(stats.Terms, ts)
		stats.BytesRead += ts.BytesRead
	}
	return &Result{QueryID: q.ID, Docs: top.ranked()}, stats, nil
}

func (e *refEngine) scanList(t workload.TermID, w float64, scores map[uint32]float64, top *refTopK, stats *ExecStats) (TermStats, error) {
	total := e.src.ListBytes(t)
	blocks := e.src.ListBlocks(t)
	ts := TermStats{Term: t, ListBytes: total}
	var cur index.BlockCursor
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
		buf := make([]byte, n)
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
			cur.Reset(e.src.Codec(), buf[blockOff:blockEnd], int(blocks[k].Count))
			for {
				p, ok := cur.Next()
				if !ok {
					break
				}
				s := scores[p.Doc] + float64(p.TF)*w
				scores[p.Doc] = s
				top.offer(p.Doc, s)
				lastTF = p.TF
				scored++
			}
			if err := cur.Err(); err != nil {
				return ts, err
			}
		}
		stats.PostingsScored += int64(scored)
		if e.cfg.Clock != nil {
			e.cfg.Clock.AdvanceAttr(time.Duration(scored)*e.cfg.PerPostingCost, simclock.CompCPUIntersect)
		}
		if len(top.heap) >= top.k && scored > 0 {
			if float64(lastTF)*w < e.cfg.TerminationFrac*top.heap[0].score {
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

// refTopK is the indexed heap the engine used to have: every offer looks the
// doc up in a map, members are re-sifted on every update, and a non-member
// enters only by beating the minimum of a full heap.
type refTopK struct {
	k     int
	heap  []scoredRef
	index map[uint32]int // doc -> heap position
}

func (t *refTopK) less(i, j int) bool { return t.heap[i].score < t.heap[j].score }

func (t *refTopK) swap(i, j int) {
	t.heap[i], t.heap[j] = t.heap[j], t.heap[i]
	t.index[t.heap[i].doc] = i
	t.index[t.heap[j].doc] = j
}

func (t *refTopK) up(j int) {
	for {
		i := (j - 1) / 2
		if i == j || !t.less(j, i) {
			break
		}
		t.swap(i, j)
		j = i
	}
}

func (t *refTopK) down(i0 int) bool {
	n := len(t.heap)
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && t.less(j2, j1) {
			j = j2
		}
		if !t.less(j, i) {
			break
		}
		t.swap(i, j)
		i = j
	}
	return i > i0
}

func (t *refTopK) fix(i int) {
	if !t.down(i) {
		t.up(i)
	}
}

func (t *refTopK) offer(doc uint32, score float64) {
	if pos, ok := t.index[doc]; ok {
		t.heap[pos].score = score
		t.fix(pos)
		return
	}
	if len(t.heap) < t.k {
		t.index[doc] = len(t.heap)
		t.heap = append(t.heap, scoredRef{doc: doc, score: score})
		t.up(len(t.heap) - 1)
		return
	}
	if score > t.heap[0].score {
		delete(t.index, t.heap[0].doc)
		t.heap[0] = scoredRef{doc: doc, score: score}
		t.index[doc] = 0
		t.fix(0)
	}
}

func (t *refTopK) ranked() []ScoredDoc {
	out := make([]ScoredDoc, len(t.heap))
	for i, e := range t.heap {
		out[i] = ScoredDoc{Doc: e.doc, Score: float32(e.score)}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Doc < out[j].Doc
	})
	return out
}
