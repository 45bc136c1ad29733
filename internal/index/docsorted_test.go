package index

import (
	"errors"
	"sort"
	"testing"

	"hybridstore/internal/simclock"
	"hybridstore/internal/storage"
	"hybridstore/internal/workload"
)

func TestDocMetaPresent(t *testing.T) {
	ix, spec := buildTestIndex(t)
	for term := 0; term < spec.VocabSize; term += 37 {
		m := ix.docTerms[term]
		if m.DF != int64(spec.DocFreq(workload.TermID(term))) {
			t.Fatalf("term %d: doc df %d", term, m.DF)
		}
		if m.Size <= 0 {
			t.Fatalf("term %d: doc payload %d bytes", term, m.Size)
		}
	}
}

func TestDocBlockDirectoryShape(t *testing.T) {
	ix, spec := buildTestIndex(t)
	term := workload.TermID(0)
	blocks := ix.DocBlocks(term)
	df := int64(spec.DocFreq(term))
	wantBlocks := int((df + BlockLen - 1) / BlockLen)
	if len(blocks) != wantBlocks {
		t.Fatalf("block refs = %d, want %d", len(blocks), wantBlocks)
	}
	var count int64
	for i, b := range blocks {
		count += int64(b.Count)
		if i == 0 {
			if b.Off != 0 {
				t.Fatalf("first block starts at %d", b.Off)
			}
			continue
		}
		if b.MaxDoc <= blocks[i-1].MaxDoc {
			t.Fatalf("block max docs not ascending at %d", i)
		}
		if b.Off <= blocks[i-1].Off {
			t.Fatalf("block offsets not ascending at %d", i)
		}
	}
	if count != df {
		t.Fatalf("block counts sum to %d, want %d", count, df)
	}
	// Raw codec: offsets are exactly the decoded posting counts.
	for i := 1; i < len(blocks); i++ {
		if blocks[i].Off != blocks[i-1].Off+blocks[i-1].Count*PostingSize {
			t.Fatalf("raw block offsets not contiguous at %d", i)
		}
	}
}

// decodeDocList streams every block of term's doc-sorted payload through a
// BlockCursor, as the conjunctive engine does.
func decodeDocList(t *testing.T, ix *Index, term workload.TermID) []workload.Posting {
	t.Helper()
	blocks := ix.DocBlocks(term)
	total := ix.DocBytes(term)
	var out []workload.Posting
	var cur BlockCursor
	for i, ref := range blocks {
		end := total
		if i+1 < len(blocks) {
			end = int64(blocks[i+1].Off)
		}
		buf := make([]byte, end-int64(ref.Off))
		if err := ix.ReadDocRange(term, int64(ref.Off), buf); err != nil {
			t.Fatal(err)
		}
		cur.Reset(ix.Codec(), buf, int(ref.Count))
		for {
			p, ok := cur.Next()
			if !ok {
				break
			}
			out = append(out, p)
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestDocBlocksSortedAndComplete(t *testing.T) {
	ix, spec := buildTestIndex(t)
	term := workload.TermID(3)
	want := spec.Postings(term)
	sort.Slice(want, func(i, j int) bool { return want[i].Doc < want[j].Doc })

	got := decodeDocList(t, ix, term)
	if len(got) != len(want) {
		t.Fatalf("reassembled %d postings, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("posting %d: %+v != %+v", i, got[i], want[i])
		}
	}
	blocks := ix.DocBlocks(term)
	for i, b := range blocks {
		last := got[0]
		for _, p := range got {
			if p.Doc <= b.MaxDoc {
				last = p
			}
		}
		if b.MaxDoc != last.Doc {
			t.Fatalf("block %d MaxDoc %d is not a list doc", i, b.MaxDoc)
		}
	}
}

func TestReadDocRangeBounds(t *testing.T) {
	ix, _ := buildTestIndex(t)
	buf := make([]byte, 1)
	if err := ix.ReadDocRange(0, ix.DocBytes(0), buf); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("read past doc payload end: %v", err)
	}
	if err := ix.ReadDocRange(0, -1, buf); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("negative offset: %v", err)
	}
}

// TestGVarintDocSectionMatchesRaw builds the same collection under both
// codecs and checks the doc-sorted payloads decode identically while the
// compressed ones are strictly smaller in aggregate.
func TestGVarintDocSectionMatchesRaw(t *testing.T) {
	spec := testSpec()
	open := func(codec CodecID) *Index {
		img, err := BuildImage(spec, codec)
		if err != nil {
			t.Fatal(err)
		}
		dev := storage.NewMemDevice("idx", img.Bytes(), simclock.New(), storage.DefaultMemParams())
		ix, err := img.Stamp(dev)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	raw := open(CodecRaw)
	gv := open(CodecGVarint)

	var rawBytes, gvBytes int64
	for term := 0; term < spec.VocabSize; term++ {
		tid := workload.TermID(term)
		rawBytes += raw.DocBytes(tid)
		gvBytes += gv.DocBytes(tid)
		a := decodeDocList(t, raw, tid)
		b := decodeDocList(t, gv, tid)
		if len(a) != len(b) {
			t.Fatalf("term %d: %d vs %d postings", term, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("term %d posting %d: %+v != %+v", term, i, a[i], b[i])
			}
		}
	}
	if gvBytes >= rawBytes {
		t.Fatalf("gvarint doc sections %d bytes, raw %d: no compression", gvBytes, rawBytes)
	}
	if gv.Bytes() >= raw.Bytes() {
		t.Fatalf("gvarint index %d bytes, raw %d: no compression", gv.Bytes(), raw.Bytes())
	}
}
