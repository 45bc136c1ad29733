package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hybridstore/internal/index"
	"hybridstore/internal/workload"
)

var bothCodecs = []index.CodecID{index.CodecRaw, index.CodecGVarint}

// TestExecuteMatchesMapReference replays a few thousand random queries on
// ONE reused Engine per codec and configuration and requires every result
// and every ExecStats to equal the map-based reference exactly. Reuse is the
// point: the accumulator never clears its chain heads, so an entry left by an
// earlier query that the membership test wrongly believed would show up here
// as a score carried from one query into the next.
func TestExecuteMatchesMapReference(t *testing.T) {
	spec := workload.DefaultCollection(20000)
	spec.VocabSize = 200

	configs := map[string]Config{
		"default":    DefaultConfig(),
		"exhaustive": {TerminationFrac: 1e-12},                  // every list read to its end
		"one-block":  {ChunkBytes: 1 << 10, TopK: 10},           // every block its own chunk
		"large-k":    {TopK: 500, TerminationFrac: 0.35},        // heap rarely full: no early reject
		"aggressive": {ChunkBytes: 2 << 10, TerminationFrac: 2}, // terminates after the first chunk
	}
	for _, codec := range bothCodecs {
		ix := codecIndex(t, spec, codec)

		// The collection must contain the list shapes the test is for.
		var shorterThanK, singleBlock, multiChunk bool
		defaultChunk := DefaultConfig()
		for term := 0; term < spec.VocabSize; term++ {
			tid := workload.TermID(term)
			shorterThanK = shorterThanK || ix.TermDF(tid) < 50
			singleBlock = singleBlock || len(ix.ListBlocks(tid)) == 1
			multiChunk = multiChunk || len(ix.ListBlocks(tid)) > defaultChunk.chunkBlocks()
		}
		if !shorterThanK || !singleBlock || !multiChunk {
			t.Fatalf("collection lacks a list shape: shorter than K %v, single block %v, several chunks %v",
				shorterThanK, singleBlock, multiChunk)
		}

		for name, cfg := range configs {
			t.Run(fmt.Sprintf("%v/%s", codec, name), func(t *testing.T) {
				eng := New(ix, cfg)
				ref := newRefEngine(ix, cfg)
				rng := rand.New(rand.NewSource(13))
				for i := 0; i < 1500; i++ {
					q := workload.Query{ID: uint64(i), Terms: make([]workload.TermID, 1+rng.Intn(6))}
					for j := range q.Terms {
						q.Terms[j] = workload.TermID(rng.Intn(spec.VocabSize))
					}
					if len(q.Terms) > 1 && i%5 == 0 {
						q.Terms[len(q.Terms)-1] = q.Terms[0] // a term repeated in the query
					}
					requireSameAsReference(t, eng, ref, q)
				}
			})
		}
	}
}

func requireSameAsReference(t *testing.T, eng *Engine, ref *refEngine, q workload.Query) {
	t.Helper()
	got, gotStats, err := eng.Execute(q)
	if err != nil {
		t.Fatalf("query %d %v: %v", q.ID, q.Terms, err)
	}
	want, wantStats, err := ref.Execute(q)
	if err != nil {
		t.Fatalf("query %d %v: reference: %v", q.ID, q.Terms, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("query %d %v: results differ from the map reference\n got %v\nwant %v", q.ID, q.Terms, got.Docs, want.Docs)
	}
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Fatalf("query %d %v: stats differ from the map reference\n got %+v\nwant %+v", q.ID, q.Terms, gotStats, wantStats)
	}
}

// stubSource is an in-memory ListSource over hand-made lists, for inputs no
// well-formed index contains.
type stubSource struct {
	codec   index.CodecID
	numDocs int64
	dfs     []int64
	lists   [][]byte
	blocks  [][]index.BlockRef
}

func newStubSource(codec index.CodecID, numDocs int64, lists ...[]workload.Posting) *stubSource {
	s := &stubSource{codec: codec, numDocs: numDocs}
	for _, ps := range lists {
		payload, refs := index.EncodeList(nil, nil, codec, ps)
		s.dfs = append(s.dfs, int64(len(ps)))
		s.lists = append(s.lists, payload)
		s.blocks = append(s.blocks, refs)
	}
	return s
}

func (s *stubSource) ListBytes(t workload.TermID) int64             { return int64(len(s.lists[t])) }
func (s *stubSource) TermDF(t workload.TermID) int64                { return s.dfs[t] }
func (s *stubSource) Codec() index.CodecID                          { return s.codec }
func (s *stubSource) ListBlocks(t workload.TermID) []index.BlockRef { return s.blocks[t] }
func (s *stubSource) NumDocs() int64                                { return s.numDocs }
func (s *stubSource) ReadListRange(t workload.TermID, off int64, p []byte) error {
	if n := copy(p, s.lists[t][off:]); n != len(p) {
		return fmt.Errorf("stub: short read of term %d at %d", t, off)
	}
	return nil
}

// descendingList returns n impact-ordered postings over docs first, first+step, ...
func descendingList(n int, first, step uint32) []workload.Posting {
	ps := make([]workload.Posting, n)
	for i := range ps {
		ps[i] = workload.Posting{Doc: first + uint32(i)*step, TF: uint16(1 + (n-i)/8)}
	}
	return ps
}

// TestExecuteRejectsDocOutsideCollection: a doc ID read from a device indexes
// the accumulator, so one at or past NumDocs must fail the query with an
// error that says which term, which doc and how large the collection is.
func TestExecuteRejectsDocOutsideCollection(t *testing.T) {
	const numDocs = 1000
	for _, codec := range bothCodecs {
		bad := descendingList(200, 0, 3)
		bad[150].Doc = numDocs // second block, first ID outside the collection
		src := newStubSource(codec, numDocs, descendingList(40, 5, 7), bad)
		eng := New(src, DefaultConfig())

		res, _, err := eng.Execute(workload.Query{ID: 1, Terms: []workload.TermID{0, 1}})
		if err == nil {
			t.Fatalf("%v: doc %d accepted in a collection of %d: %v", codec, numDocs, numDocs, res.Docs)
		}
		for _, want := range []string{"term 1", "doc 1000", "NumDocs 1000"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%v: error %q does not name %q", codec, err, want)
			}
		}
		// The engine stays usable: the healthy list alone still answers.
		requireSameAsReference(t, eng, newRefEngine(src, DefaultConfig()),
			workload.Query{ID: 2, Terms: []workload.TermID{0}})
	}
}

// TestExecuteRejectsUnaddressableCollection: NumDocs sizes an allocation and
// comes from a device header.
func TestExecuteRejectsUnaddressableCollection(t *testing.T) {
	for _, n := range []int64{-1, 1<<32 + 1} {
		eng := New(newStubSource(index.CodecRaw, n, descendingList(3, 0, 1)), DefaultConfig())
		if _, _, err := eng.Execute(workload.Query{Terms: []workload.TermID{0}}); err == nil {
			t.Errorf("NumDocs %d accepted", n)
		}
	}
}

// TestExecuteMalformedListsMatchReference feeds the engine lists a corrupt
// device could produce and the map accumulator tolerated: a doc repeated
// inside one block (scoreBlock must find it on its word's chain after the
// first occurrence inserted it) and a directory entry claiming more postings than
// the block scratch holds. It also feeds it blocks cut short under a
// directory entry that still claims all their postings, which both engines
// must refuse alike.
func TestExecuteMalformedListsMatchReference(t *testing.T) {
	for _, codec := range bothCodecs {
		dup := descendingList(300, 0, 2)
		dup[10].Doc = dup[3].Doc    // same block
		dup[200].Doc = dup[3].Doc   // later block
		dup[129].Doc = dup[128].Doc // adjacent
		// List 0 holds odd docs only, so list 1 is where the repeats first appear.
		src := newStubSource(codec, 1000, descendingList(90, 1, 10), dup)
		requireSameAsReference(t, New(src, DefaultConfig()), newRefEngine(src, DefaultConfig()),
			workload.Query{ID: 1, Terms: []workload.TermID{0, 1, 1}})
	}

	// Raw blocks are directory constructs, so one entry can cover them all.
	src := newStubSource(index.CodecRaw, 5000, descendingList(700, 0, 7))
	src.blocks[0] = []index.BlockRef{{MaxDoc: 4999, Off: 0, Count: 700}}
	requireSameAsReference(t, New(src, DefaultConfig()), newRefEngine(src, DefaultConfig()),
		workload.Query{ID: 2, Terms: []workload.TermID{0}})

	// The second block of list 1's second chunk, cut 64 postings and two
	// bytes in: inside a raw posting, and inside a gvarint group's deltas
	// (the first 64 postings are 16 whole groups). The directory still
	// claims all 128, so the cut shows only as the bytes running out.
	cfg := Config{ChunkBytes: 2 * index.BlockLen * index.PostingSize}
	for _, codec := range bothCodecs {
		ps := descendingList(4*index.BlockLen, 0, 3)
		src := newStubSource(codec, 5000, descendingList(40, 1, 9), ps)
		head, _ := index.EncodeList(nil, nil, codec, ps[3*index.BlockLen:3*index.BlockLen+64])
		src.lists[1] = src.lists[1][:int(src.blocks[1][3].Off)+len(head)+2]
		q := workload.Query{ID: 3, Terms: []workload.TermID{0, 1}}
		_, gotStats, err := New(src, cfg).Execute(q)
		_, wantStats, wantErr := newRefEngine(src, cfg).Execute(q)
		if wantErr == nil || !strings.Contains(wantErr.Error(), "truncated") {
			t.Fatalf("%v: reference error %v, want a truncation", codec, wantErr)
		}
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%v: error %v, reference %v", codec, err, wantErr)
		}
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Fatalf("%v: stats differ from the map reference\n got %+v\nwant %+v", codec, gotStats, wantStats)
		}
		if len(gotStats.Terms) != 1 || gotStats.PostingsScored != 40+2*index.BlockLen {
			t.Fatalf("%v: the cut was not met in list 1's second chunk: %+v", codec, gotStats)
		}
	}
}
