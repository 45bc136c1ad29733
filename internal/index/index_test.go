package index

import (
	"encoding/binary"
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

// DecodePosting deserializes one raw posting from buf.
func DecodePosting(buf []byte) workload.Posting {
	return workload.Posting{Doc: binary.LittleEndian.Uint32(buf[0:4]), TF: binary.LittleEndian.Uint16(buf[4:6])}
}

// DecodePostings deserializes as many whole raw postings as buf holds.
func DecodePostings(buf []byte) []workload.Posting {
	out := make([]workload.Posting, len(buf)/PostingSize)
	for i := range out {
		out[i] = DecodePosting(buf[i*PostingSize:])
	}
	return out
}

func buildTestIndex(t *testing.T) (*Index, workload.CollectionSpec) {
	t.Helper()
	spec := testSpec()
	dev := storage.NewMemDevice("idx", RequiredBytes(spec)+4096, simclock.New(), storage.DefaultMemParams())
	ix, err := Build(dev, spec)
	if err != nil {
		t.Fatal(err)
	}
	return ix, spec
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
		m := ix.Meta(workload.TermID(term))
		if m.DF != int64(spec.DocFreq(workload.TermID(term))) {
			t.Fatalf("term %d df = %d", term, m.DF)
		}
	}
}

func TestBuildLayoutContiguous(t *testing.T) {
	ix, spec := buildTestIndex(t)
	for term := 1; term < spec.VocabSize; term++ {
		prev := ix.Meta(workload.TermID(term - 1))
		cur := ix.Meta(workload.TermID(term))
		if cur.Offset != prev.Offset+prev.Bytes() {
			t.Fatalf("term %d not contiguous: %d != %d+%d",
				term, cur.Offset, prev.Offset, prev.Bytes())
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

func TestMetaPanicsOutOfRange(t *testing.T) {
	ix, _ := buildTestIndex(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Meta out of range did not panic")
		}
	}()
	ix.Meta(workload.TermID(ix.NumTerms()))
}

func TestOpenRoundTrip(t *testing.T) {
	spec := testSpec()
	clk := simclock.New()
	dev := storage.NewMemDevice("idx", RequiredBytes(spec)+4096, clk, storage.DefaultMemParams())
	built, err := Build(dev, spec)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	if opened.NumTerms() != built.NumTerms() || opened.NumDocs() != built.NumDocs() {
		t.Fatalf("opened header mismatch: %d/%d vs %d/%d",
			opened.NumTerms(), opened.NumDocs(), built.NumTerms(), built.NumDocs())
	}
	for term := 0; term < built.NumTerms(); term++ {
		if opened.Meta(workload.TermID(term)) != built.Meta(workload.TermID(term)) {
			t.Fatalf("term %d meta mismatch", term)
		}
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	dev := storage.NewMemDevice("junk", 4096, simclock.New(), storage.DefaultMemParams())
	dev.WriteAt([]byte("NOPE"), 0)
	if _, err := Open(dev); err == nil {
		t.Fatal("Open accepted garbage device")
	}
}

func TestBuildRejectsTooSmallDevice(t *testing.T) {
	spec := testSpec()
	dev := storage.NewMemDevice("tiny", 1024, simclock.New(), storage.DefaultMemParams())
	if _, err := Build(dev, spec); err == nil {
		t.Fatal("Build fit an index on a 1 KiB device")
	}
}

func TestBuildRejectsInvalidSpec(t *testing.T) {
	dev := storage.NewMemDevice("idx", 1<<20, simclock.New(), storage.DefaultMemParams())
	if _, err := Build(dev, workload.CollectionSpec{}); err == nil {
		t.Fatal("Build accepted zero spec")
	}
}

func TestRequiredBytesMatchesLayout(t *testing.T) {
	spec := testSpec()
	want := RequiredBytes(spec)
	dev := storage.NewMemDevice("idx", want, simclock.New(), storage.DefaultMemParams())
	ix, err := Build(dev, spec)
	if err != nil {
		t.Fatalf("Build on exactly-sized device failed: %v", err)
	}
	lastDoc := ix.DocMeta(workload.TermID(spec.VocabSize - 1))
	end := lastDoc.Offset + lastDoc.Size
	if end != want {
		t.Fatalf("layout end %d != RequiredBytes %d", end, want)
	}
	if ix.SizeBytes() != want {
		t.Fatalf("SizeBytes %d != RequiredBytes %d", ix.SizeBytes(), want)
	}
}

func TestBuildOnHDDWorks(t *testing.T) {
	// The real configuration: index on a mechanical disk.
	spec := testSpec()
	clk := simclock.New()
	hdd := stubHDD(clk, RequiredBytes(spec)+4096)
	ix, err := Build(hdd, spec)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PostingSize)
	if err := ix.ReadListRange(5, 0, buf); err != nil {
		t.Fatal(err)
	}
	if DecodePosting(buf) != spec.Postings(5)[0] {
		t.Fatal("HDD-backed read mismatch")
	}
}

// stubHDD returns a memory device standing in for a disk; index does not
// care which Device implementation backs it.
func stubHDD(clk *simclock.Clock, size int64) storage.Device {
	return storage.NewMemDevice("hdd", size, clk, storage.DefaultMemParams())
}
