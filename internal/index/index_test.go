package index

import (
	"errors"
	"testing"
	"testing/quick"

	"hybridstore/internal/simclock"
	"hybridstore/internal/storage"
	"hybridstore/internal/workload"
)

func testSpec() workload.CollectionSpec {
	spec := workload.DefaultCollection(20000)
	spec.VocabSize = 200
	return spec
}

// DecodePostings deserializes as many whole raw postings as buf holds.
func DecodePostings(buf []byte) []workload.Posting {
	out := make([]workload.Posting, len(buf)/PostingSize)
	for i := range out {
		out[i] = DecodePosting(buf[i*PostingSize:])
	}
	return out
}

// stampTestImage stamps spec's raw image onto the device dev makes of the
// image's size.
func stampTestImage(t *testing.T, spec workload.CollectionSpec, dev func(size int64) storage.Device) *Index {
	t.Helper()
	img, err := BuildImage(spec, CodecRaw)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := img.Stamp(dev(img.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func buildTestIndex(t *testing.T) (*Index, workload.CollectionSpec) {
	t.Helper()
	spec := testSpec()
	return stampTestImage(t, spec, func(size int64) storage.Device {
		return storage.NewMemDevice("idx", size, simclock.New(), storage.DefaultMemParams())
	}), spec
}

func TestPostingCodecRoundTrip(t *testing.T) {
	f := func(doc uint32, tf uint16) bool {
		var buf [PostingSize]byte
		EncodePosting(buf[:], workload.Posting{Doc: doc, TF: tf})
		got := DecodePosting(buf[:])
		return got.Doc == doc && got.TF == tf
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodePostings(t *testing.T) {
	buf := make([]byte, 3*PostingSize+5) // trailing partial posting ignored
	EncodePosting(buf[0:], workload.Posting{Doc: 1, TF: 10})
	EncodePosting(buf[PostingSize:], workload.Posting{Doc: 2, TF: 9})
	EncodePosting(buf[2*PostingSize:], workload.Posting{Doc: 3, TF: 8})
	ps := DecodePostings(buf)
	if len(ps) != 3 || ps[0].Doc != 1 || ps[2].TF != 8 {
		t.Fatalf("decoded %+v", ps)
	}
}

func TestBuildAndMeta(t *testing.T) {
	ix, spec := buildTestIndex(t)
	if ix.NumTerms() != spec.VocabSize {
		t.Fatalf("NumTerms = %d", ix.NumTerms())
	}
	if ix.NumDocs() != int64(spec.NumDocs) {
		t.Fatalf("NumDocs = %d", ix.NumDocs())
	}
	for term := 0; term < spec.VocabSize; term++ {
		if df := ix.TermDF(workload.TermID(term)); df != int64(spec.DocFreq(workload.TermID(term))) {
			t.Fatalf("term %d df = %d", term, df)
		}
	}
}

func TestBuildLayoutContiguous(t *testing.T) {
	ix, spec := buildTestIndex(t)
	for term := 1; term < spec.VocabSize; term++ {
		prev, cur := ix.terms[term-1], ix.terms[term]
		if cur.Offset != prev.Offset+prev.Size {
			t.Fatalf("term %d not contiguous: %d != %d+%d",
				term, cur.Offset, prev.Offset, prev.Size)
		}
	}
}

func TestReadListRangeMatchesSpec(t *testing.T) {
	ix, spec := buildTestIndex(t)
	for _, term := range []workload.TermID{0, 7, 199} {
		want := spec.Postings(term)
		buf := make([]byte, ix.ListBytes(term))
		if err := ix.ReadListRange(term, 0, buf); err != nil {
			t.Fatal(err)
		}
		got := DecodePostings(buf)
		if len(got) != len(want) {
			t.Fatalf("term %d: %d postings, want %d", term, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("term %d posting %d: %+v != %+v", term, i, got[i], want[i])
			}
		}
	}
}

func TestReadListRangePartial(t *testing.T) {
	ix, spec := buildTestIndex(t)
	term := workload.TermID(3)
	want := spec.Postings(term)
	// Read postings 5..10 only.
	buf := make([]byte, 5*PostingSize)
	if err := ix.ReadListRange(term, 5*PostingSize, buf); err != nil {
		t.Fatal(err)
	}
	got := DecodePostings(buf)
	for i := range got {
		if got[i] != want[5+i] {
			t.Fatalf("offset read mismatch at %d", i)
		}
	}
}

func TestReadListRangeBounds(t *testing.T) {
	ix, _ := buildTestIndex(t)
	buf := make([]byte, PostingSize)
	if err := ix.ReadListRange(0, ix.ListBytes(0), buf); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("read past list end: %v", err)
	}
	if err := ix.ReadListRange(0, -1, buf); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("negative offset: %v", err)
	}
}

func TestBuildRejectsTooSmallDevice(t *testing.T) {
	img, err := BuildImage(testSpec(), CodecRaw)
	if err != nil {
		t.Fatal(err)
	}
	dev := storage.NewMemDevice("tiny", 1024, simclock.New(), storage.DefaultMemParams())
	if _, err := img.Stamp(dev); err == nil {
		t.Fatal("Stamp fit an index on a 1 KiB device")
	}
}

func TestBuildRejectsInvalidSpec(t *testing.T) {
	if _, err := BuildImage(workload.CollectionSpec{}, CodecRaw); err == nil {
		t.Fatal("BuildImage accepted zero spec")
	}
}

// TestRequiredBytesMatchesLayout: the last doc-sorted payload ends the
// image, and the image fits a device of exactly its size.
func TestRequiredBytesMatchesLayout(t *testing.T) {
	spec := testSpec()
	img, err := BuildImage(spec, CodecRaw)
	if err != nil {
		t.Fatal(err)
	}
	dev := storage.NewMemDevice("idx", img.Bytes(), simclock.New(), storage.DefaultMemParams())
	ix, err := img.Stamp(dev)
	if err != nil {
		t.Fatalf("Stamp on exactly-sized device failed: %v", err)
	}
	lastDoc := ix.docTerms[spec.VocabSize-1]
	if end := lastDoc.Offset + lastDoc.Size; end != img.Bytes() {
		t.Fatalf("layout end %d != image size %d", end, img.Bytes())
	}
}

func TestBuildOnHDDWorks(t *testing.T) {
	// The real configuration: index on a mechanical disk.
	spec := testSpec()
	ix := stampTestImage(t, spec, func(size int64) storage.Device { return stubHDD(simclock.New(), size) })
	buf := make([]byte, PostingSize)
	if err := ix.ReadListRange(5, 0, buf); err != nil {
		t.Fatal(err)
	}
	if DecodePosting(buf) != spec.Postings(5)[0] {
		t.Fatal("HDD-backed read mismatch")
	}
}

// TestIndexReadsFromDevice: a stamped Index answers its directory from the
// image it was stamped from, holding it once, and reads every payload byte
// from the device at device cost.
func TestIndexReadsFromDevice(t *testing.T) {
	img, err := BuildImage(testSpec(), CodecRaw)
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.New()
	dev := storage.NewMemDevice("idx", img.Bytes(), clk, storage.DefaultMemParams())
	ix, err := img.Stamp(dev)
	if err != nil {
		t.Fatal(err)
	}
	const term = workload.TermID(3)
	if &ix.ListBlocks(term)[0] != &img.listBlocks[term][0] || &ix.DocBlocks(term)[0] != &img.docBlocks[term][0] {
		t.Fatal("the index holds a copy of the image's block directory")
	}
	for _, read := range []struct {
		name string
		fn   func(p []byte) error
	}{
		{"ReadListRange", func(p []byte) error { return ix.ReadListRange(term, 0, p) }},
		{"ReadDocRange", func(p []byte) error { return ix.ReadDocRange(term, 0, p) }},
	} {
		reads, now := dev.Stats().Reads, clk.Now()
		if err := read.fn(make([]byte, PostingSize)); err != nil {
			t.Fatal(err)
		}
		if dev.Stats().Reads != reads+1 || clk.Now() <= now {
			t.Fatalf("%s: device reads %d → %d, clock %v → %v: served without the device",
				read.name, reads, dev.Stats().Reads, now, clk.Now())
		}
	}
}

// stubHDD returns a memory device standing in for a disk; index does not
// care which Device implementation backs it.
func stubHDD(clk *simclock.Clock, size int64) storage.Device {
	return storage.NewMemDevice("hdd", size, clk, storage.DefaultMemParams())
}
