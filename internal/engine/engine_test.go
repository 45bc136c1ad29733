package engine

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"hybridstore/internal/index"
	"hybridstore/internal/simclock"
	"hybridstore/internal/storage"
	"hybridstore/internal/workload"
)

func testIndex(t *testing.T) (*index.Index, workload.CollectionSpec) {
	t.Helper()
	spec := workload.DefaultCollection(20000)
	spec.VocabSize = 200
	dev := storage.NewMemDevice("idx", index.RequiredBytes(spec)+4096,
		simclock.New(), storage.DefaultMemParams())
	ix, err := index.Build(dev, spec)
	if err != nil {
		t.Fatal(err)
	}
	return ix, spec
}

func TestExecuteReturnsTopK(t *testing.T) {
	ix, _ := testIndex(t)
	e := New(ix, DefaultConfig())
	res, stats, err := e.Execute(workload.Query{ID: 1, Terms: []workload.TermID{0, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) != 50 {
		t.Fatalf("got %d docs, want 50", len(res.Docs))
	}
	if res.QueryID != 1 {
		t.Fatalf("QueryID = %d", res.QueryID)
	}
	if stats.BytesRead == 0 || stats.PostingsScored == 0 {
		t.Fatalf("stats empty: %+v", stats)
	}
}

func TestExecuteRankedDescending(t *testing.T) {
	ix, _ := testIndex(t)
	e := New(ix, DefaultConfig())
	res, _, err := e.Execute(workload.Query{ID: 2, Terms: []workload.TermID{1, 3, 7}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Docs); i++ {
		if res.Docs[i].Score > res.Docs[i-1].Score {
			t.Fatalf("results not sorted at %d: %v > %v",
				i, res.Docs[i].Score, res.Docs[i-1].Score)
		}
		if res.Docs[i].Score == res.Docs[i-1].Score && res.Docs[i].Doc < res.Docs[i-1].Doc {
			t.Fatalf("tie not broken by doc id at %d", i)
		}
	}
}

func TestExecuteDeterministic(t *testing.T) {
	ix, _ := testIndex(t)
	e := New(ix, DefaultConfig())
	q := workload.Query{ID: 3, Terms: []workload.TermID{0, 2}}
	a, _, _ := e.Execute(q)
	b, _, _ := e.Execute(q)
	if len(a.Docs) != len(b.Docs) {
		t.Fatal("result sizes differ across runs")
	}
	for i := range a.Docs {
		if a.Docs[i] != b.Docs[i] {
			t.Fatalf("results differ at %d", i)
		}
	}
}

func TestEarlyTerminationTruncatesPopularLists(t *testing.T) {
	ix, spec := testIndex(t)
	cfg := DefaultConfig()
	cfg.ChunkBytes = 1 << 10 // fine-grained chunks: test lists are small
	e := New(ix, cfg)
	// Term 0 has the longest list; pairing it with a selective term should
	// leave it partially read.
	_, stats, err := e.Execute(workload.Query{ID: 4, Terms: []workload.TermID{0, 150}})
	if err != nil {
		t.Fatal(err)
	}
	var popular, rare TermStats
	for _, ts := range stats.Terms {
		if ts.Term == 0 {
			popular = ts
		} else {
			rare = ts
		}
	}
	if popular.Utilization >= 1.0 {
		t.Fatalf("popular list fully read (util %v); early termination dead", popular.Utilization)
	}
	if !popular.Terminated {
		t.Fatal("popular list not flagged terminated")
	}
	if rare.Utilization < 0.99 {
		t.Fatalf("short list (df=%d) truncated to %v", spec.DocFreq(150), rare.Utilization)
	}
}

func TestUtilizationDecreasesWithPopularity(t *testing.T) {
	ix, _ := testIndex(t)
	cfg := DefaultConfig()
	cfg.ChunkBytes = 1 << 10
	e := New(ix, cfg)
	util := make(map[workload.TermID]float64)
	for _, q := range []workload.Query{
		{ID: 1, Terms: []workload.TermID{0, 100}},
		{ID: 2, Terms: []workload.TermID{1, 120}},
	} {
		_, stats, err := e.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, ts := range stats.Terms {
			util[ts.Term] = ts.Utilization
		}
	}
	if util[0] > util[100] || util[1] > util[120] {
		t.Fatalf("popular terms not less utilized: %v", util)
	}
}

func TestSingleTermQueryFullK(t *testing.T) {
	ix, _ := testIndex(t)
	e := New(ix, DefaultConfig())
	res, _, err := e.Execute(workload.Query{ID: 5, Terms: []workload.TermID{0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) != 50 {
		t.Fatalf("got %d docs", len(res.Docs))
	}
	seen := make(map[uint32]bool)
	for _, d := range res.Docs {
		if seen[d.Doc] {
			t.Fatalf("doc %d ranked twice", d.Doc)
		}
		seen[d.Doc] = true
	}
}

func TestQueryOnTinyListReturnsFewer(t *testing.T) {
	ix, spec := testIndex(t)
	e := New(ix, DefaultConfig())
	last := workload.TermID(spec.VocabSize - 1)
	df := spec.DocFreq(last)
	if df >= 50 {
		t.Skipf("tail term df=%d not below K", df)
	}
	res, _, err := e.Execute(workload.Query{ID: 6, Terms: []workload.TermID{last}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) != df {
		t.Fatalf("got %d docs, want %d", len(res.Docs), df)
	}
}

func TestScoresAccumulateAcrossTerms(t *testing.T) {
	ix, spec := testIndex(t)
	cfg := DefaultConfig()
	cfg.TerminationFrac = 0 // exact scoring
	e := New(ix, cfg)
	// Compute expected top score for a 2-term query by brute force.
	q := workload.Query{ID: 7, Terms: []workload.TermID{10, 20}}
	want := make(map[uint32]float64)
	for _, term := range q.Terms {
		df := int64(spec.DocFreq(term))
		w := idf(int64(spec.NumDocs), df)
		for _, p := range spec.Postings(term) {
			want[p.Doc] += float64(p.TF) * w
		}
	}
	var bestDoc uint32
	bestScore := -1.0
	for doc, s := range want {
		if s > bestScore || (s == bestScore && doc < bestDoc) {
			bestDoc, bestScore = doc, s
		}
	}
	res, _, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Docs[0].Doc != bestDoc {
		t.Fatalf("top doc %d (%.3f), brute force says %d (%.3f)",
			res.Docs[0].Doc, res.Docs[0].Score, bestDoc, bestScore)
	}
}

func TestTerminationFracZeroReadsEverything(t *testing.T) {
	ix, _ := testIndex(t)
	cfg := DefaultConfig()
	cfg.TerminationFrac = 1e-12 // effectively never terminate
	e := New(ix, cfg)
	_, stats, err := e.Execute(workload.Query{ID: 8, Terms: []workload.TermID{0, 9}})
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range stats.Terms {
		if ts.Utilization < 0.999 {
			t.Fatalf("term %d utilization %v with termination disabled", ts.Term, ts.Utilization)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.fillDefaults()
	if c.TopK != 50 || c.ChunkBytes <= 0 || c.TerminationFrac <= 0 || c.DocResultBytes != 400 {
		t.Fatalf("defaults: %+v", c)
	}
	if n := c.chunkBlocks(); n != c.ChunkBytes/(index.BlockLen*index.PostingSize) {
		t.Fatalf("chunkBlocks = %d for ChunkBytes %d", n, c.ChunkBytes)
	}
	c2 := Config{ChunkBytes: 1} // below one block
	c2.fillDefaults()
	if n := c2.chunkBlocks(); n != 1 {
		t.Fatalf("chunkBlocks = %d, want floor of 1", n)
	}
}

func TestResultCodecRoundTrip(t *testing.T) {
	r := &Result{QueryID: 99, Docs: []ScoredDoc{{Doc: 1, Score: 2.5}, {Doc: 7, Score: 1.25}}}
	buf := r.Encode(400)
	if len(buf) != EncodedResultBytes(2, 400) {
		t.Fatalf("encoded %d bytes", len(buf))
	}
	got, err := DecodeResult(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.QueryID != 99 || len(got.Docs) != 2 || got.Docs[0] != r.Docs[0] || got.Docs[1] != r.Docs[1] {
		t.Fatalf("decoded %+v", got)
	}
}

// TestEncodeToPadsInPlace: encoding into an entry-sized buffer yields the
// bytes Encode would, followed by the entry's zero padding, and decodes to the
// same result; a buffer the encoding does not fit is a caller bug.
func TestEncodeToPadsInPlace(t *testing.T) {
	r := &Result{QueryID: 99, Docs: []ScoredDoc{{Doc: 1, Score: 2.5}, {Doc: 7, Score: 1.25}}}
	entry := r.EncodeTo(make([]byte, 1024), 400)
	want := append(r.Encode(400), make([]byte, 1024-EncodedResultBytes(2, 400))...)
	if !bytes.Equal(entry, want) {
		t.Fatal("EncodeTo differs from Encode followed by zero padding")
	}
	if got, err := DecodeResult(entry); err != nil || !reflect.DeepEqual(got, r) {
		t.Fatalf("decoded %+v, %v", got, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a buffer one byte short did not panic")
		}
	}()
	r.EncodeTo(make([]byte, EncodedResultBytes(2, 400)-1), 400)
}

func TestResultEntrySizeMatchesPaper(t *testing.T) {
	// 50 docs × 400 B ≈ 20 KB per result entry (§VI).
	docs := make([]ScoredDoc, 50)
	r := &Result{QueryID: 1, Docs: docs}
	size := len(r.Encode(400))
	if size < 20000 || size > 20100 {
		t.Fatalf("entry size %d, want ≈20 KB", size)
	}
}

func TestDecodeResultRejectsCorrupt(t *testing.T) {
	if _, err := DecodeResult([]byte{1, 2, 3}); err == nil {
		t.Fatal("short buffer accepted")
	}
	r := &Result{QueryID: 1, Docs: make([]ScoredDoc, 3)}
	buf := r.Encode(100)
	if _, err := DecodeResult(buf[:len(buf)-50]); err == nil {
		t.Fatal("truncated buffer accepted")
	}
}

func TestDecodeResultRejectsOverflowHeader(t *testing.T) {
	// n × docBytes chosen to overflow int64 and slip past a naive size
	// check; the decoder must reject it without allocating.
	buf := make([]byte, 16)
	for i := 8; i < 16; i++ {
		buf[i] = 0xCB // n ≈ 3.4e9, docBytes ≈ 3.4e9
	}
	if _, err := DecodeResult(buf); err == nil {
		t.Fatal("overflowing header accepted")
	}
}

func TestEncodePanicsOnTinyDocBytes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("docBytes < 8 did not panic")
		}
	}()
	(&Result{}).Encode(4)
}

func TestResultCodecProperty(t *testing.T) {
	f := func(qid uint64, docsRaw []uint32) bool {
		docs := make([]ScoredDoc, len(docsRaw))
		for i, d := range docsRaw {
			docs[i] = ScoredDoc{Doc: d, Score: float32(d) / 3}
		}
		r := &Result{QueryID: qid, Docs: docs}
		got, err := DecodeResult(r.Encode(32))
		if err != nil || got.QueryID != qid || len(got.Docs) != len(docs) {
			return false
		}
		for i := range docs {
			if got.Docs[i] != docs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTopKEvictsLowest(t *testing.T) {
	tk := newTopK(3)
	tk.offer(1, 10)
	tk.offer(2, 20)
	tk.offer(3, 30)
	tk.offer(4, 5) // below min, rejected
	if tk.min() != 10 {
		t.Fatalf("min = %v", tk.min())
	}
	tk.offer(5, 40) // evicts doc 1
	ranked := tk.ranked()
	if len(ranked) != 3 || ranked[0].Doc != 5 || ranked[2].Doc != 2 {
		t.Fatalf("ranked = %+v", ranked)
	}
}

func TestTopKUpdatesExisting(t *testing.T) {
	tk := newTopK(2)
	tk.offer(1, 10)
	tk.offer(2, 20)
	tk.offer(1, 50) // doc 1 accumulates past doc 2
	ranked := tk.ranked()
	if ranked[0].Doc != 1 || ranked[0].Score != 50 {
		t.Fatalf("ranked = %+v", ranked)
	}
	if len(ranked) != 2 {
		t.Fatalf("len = %d", len(ranked))
	}
}

func TestTopKEqualToMinimumNotAdmitted(t *testing.T) {
	tk := newTopK(3)
	tk.offer(1, 10)
	tk.offer(2, 20)
	tk.offer(3, 30)
	tk.offer(4, 10) // ties the minimum: the incumbent stays
	ranked := tk.ranked()
	if len(ranked) != 3 || ranked[2].Doc != 1 {
		t.Fatalf("ranked = %+v, want doc 1 still last", ranked)
	}
}

func TestTopKUpdateReordersHeap(t *testing.T) {
	tk := newTopK(3)
	tk.offer(1, 10)
	tk.offer(2, 20)
	tk.offer(3, 30)
	tk.offer(1, 25) // the minimum's owner moves up: doc 2 is the new minimum
	if tk.min() != 20 {
		t.Fatalf("min = %v after updating the root, want 20", tk.min())
	}
	tk.offer(4, 22) // must evict doc 2, not doc 1
	ranked := tk.ranked()
	want := []ScoredDoc{{Doc: 3, Score: 30}, {Doc: 1, Score: 25}, {Doc: 4, Score: 22}}
	if !reflect.DeepEqual(ranked, want) {
		t.Fatalf("ranked = %+v, want %+v", ranked, want)
	}
}

func TestTopKResetForgetsMembers(t *testing.T) {
	tk := newTopK(2)
	tk.offer(1, 10)
	tk.offer(2, 20)
	tk.reset()
	if tk.full() || tk.min() != 0 || len(tk.ranked()) != 0 {
		t.Fatalf("not empty after reset: %+v", tk.ranked())
	}
	// An earlier member offered again is a new entry, not an update of a
	// position remembered from before the reset.
	tk.offer(3, 5)
	tk.offer(1, 1)
	want := []ScoredDoc{{Doc: 3, Score: 5}, {Doc: 1, Score: 1}}
	if ranked := tk.ranked(); !reflect.DeepEqual(ranked, want) {
		t.Fatalf("ranked = %+v, want %+v", ranked, want)
	}
}

func TestIdf(t *testing.T) {
	if idf(1000, 0) != 0 {
		t.Fatal("idf with df=0 not 0")
	}
	if idf(1000, 10) <= idf(1000, 100) {
		t.Fatal("idf not decreasing in df")
	}
}
