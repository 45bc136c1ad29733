package index

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"hybridstore/internal/disksim"
	"hybridstore/internal/simclock"
	"hybridstore/internal/storage"
	"hybridstore/internal/workload"
)

// TestStampMatchesBuild is the contract the artifact cache rests on: every
// device stamped from an image holds the image's bytes and was charged the
// same bulk-load write sequence (header and directories, the list region
// in flush-sized chunks, one write per doc-sorted payload), so experiment
// points sharing an image replay the exact same timeline.
func TestStampMatchesBuild(t *testing.T) {
	spec := testSpec()
	img, err := BuildImage(spec, CodecRaw)
	if err != nil {
		t.Fatal(err)
	}
	size := img.Bytes() + 4096
	devStamp := storage.NewMemDevice("idx", size, simclock.New(), storage.DefaultMemParams())
	ixStamp, err := img.Stamp(devStamp)
	if err != nil {
		t.Fatal(err)
	}

	wantWrites := 1 + (img.listsEnd-img.headLen+buildFlushSize-1)/buildFlushSize
	for _, m := range img.docTerms {
		if m.Size > 0 {
			wantWrites++
		}
	}
	if ss := devStamp.Stats(); ss.Writes != wantWrites || ss.BytesWrit != img.Bytes() {
		t.Fatalf("write history {ops %d, bytes %d}, want {ops %d, bytes %d}",
			ss.Writes, ss.BytesWrit, wantWrites, img.Bytes())
	}
	got := make([]byte, img.Bytes())
	if _, err := devStamp.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img.data, got) {
		t.Fatal("stamped device content differs from the image")
	}
	if ixStamp.NumDocs() != int64(spec.NumDocs) || ixStamp.NumTerms() != spec.VocabSize {
		t.Fatalf("index metadata (%d docs, %d terms), spec (%d docs, %d terms)",
			ixStamp.NumDocs(), ixStamp.NumTerms(), spec.NumDocs, spec.VocabSize)
	}

	// The simulated HDD adopts the image's bytes instead of copying them.
	// Hidden behind a wrapper it cannot, and takes the copying path; the two
	// drives must be indistinguishable from the outside.
	imgCRC := crc32.ChecksumIEEE(img.data)
	type stamped struct {
		hdd   *disksim.HDD
		clock *simclock.Clock
		ops   []storage.Op
	}
	stamp := func(adopt bool) *stamped {
		s := &stamped{clock: simclock.New()}
		s.hdd = disksim.New("hdd", s.clock, disksim.DefaultParams(size))
		s.hdd.SetOpHook(func(op storage.Op) { s.ops = append(s.ops, op) })
		var dev storage.Device = s.hdd
		if !adopt {
			dev = struct{ storage.Device }{s.hdd} // only Device's methods: no AdoptBase
		}
		if _, err := img.Stamp(dev); err != nil {
			t.Fatal(err)
		}
		return s
	}
	adopted, copied := stamp(true), stamp(false)
	sameOutside := func(when string) {
		t.Helper()
		if a, c := adopted.hdd.Stats(), copied.hdd.Stats(); a != c {
			t.Fatalf("%s: stats differ: adopted %+v, copied %+v", when, a, c)
		}
		if a, c := adopted.hdd.SequentialHits(), copied.hdd.SequentialHits(); a != c {
			t.Fatalf("%s: sequential hits differ: adopted %d, copied %d", when, a, c)
		}
		if a, c := adopted.clock.Now(), copied.clock.Now(); a != c {
			t.Fatalf("%s: clocks differ: adopted %v, copied %v", when, a, c)
		}
		if !slices.Equal(adopted.ops, copied.ops) {
			t.Fatalf("%s: op-hook event sequences differ (%d vs %d events)", when, len(adopted.ops), len(copied.ops))
		}
	}
	readAll := func(s *stamped) []byte {
		t.Helper()
		buf := make([]byte, size)
		if _, err := s.hdd.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	sameOutside("after stamp")
	if len(adopted.ops) < 3 {
		t.Fatalf("stamp issued %d writes; the hook saw too little to compare", len(adopted.ops))
	}
	onDisk := append(bytes.Clone(img.data), make([]byte, size-img.Bytes())...)
	if !bytes.Equal(readAll(adopted), onDisk) || !bytes.Equal(readAll(copied), onDisk) {
		t.Fatal("stamped drives do not read back the image followed by zeros")
	}

	// Each drive's later writes are its own: a write to the adopting drive
	// shows neither on a second drive sharing the image nor in the image.
	sibling := stamp(true)
	patch := bytes.Repeat([]byte{0xEE}, 300)
	patchOff := img.headLen + 17
	for _, s := range []*stamped{adopted, copied} {
		if _, err := s.hdd.WriteAt(patch, patchOff); err != nil {
			t.Fatal(err)
		}
	}
	sameOutside("after overwrite")
	copy(onDisk[patchOff:], patch)
	if !bytes.Equal(readAll(adopted), onDisk) || !bytes.Equal(readAll(copied), onDisk) {
		t.Fatal("overwritten drives do not read back the image with the patch applied")
	}
	if !bytes.Equal(readAll(sibling)[:img.Bytes()], img.data) {
		t.Fatal("a write to one adopting drive shows through a second drive sharing the image")
	}
	if crc32.ChecksumIEEE(img.data) != imgCRC {
		t.Fatal("the image's bytes were written")
	}
}

// TestStampOntoHDDDoesNotCopy keeps the host-side copy of the index from
// coming back: stamping onto the simulated HDD shares the image's bytes, so
// it may allocate only bookkeeping, not a fraction of the image.
func TestStampOntoHDDDoesNotCopy(t *testing.T) {
	spec := workload.DefaultCollection(200_000)
	spec.VocabSize = 1000 // 2.6 MB image: 1 % is well clear of the runtime's own background allocation
	img, err := BuildImage(spec, CodecRaw)
	if err != nil {
		t.Fatal(err)
	}
	hdd := disksim.New("hdd", simclock.New(), disksim.DefaultParams(img.Bytes()+(1<<20)))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := img.Stamp(hdd); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(img.Bytes()/100); got >= limit {
		t.Fatalf("Stamp allocated %d bytes for a %d-byte image, want < %d (1 %%)", got, img.Bytes(), limit)
	}
}

func TestImageBytesMatchesRequired(t *testing.T) {
	spec := testSpec()
	img, err := BuildImage(spec, CodecRaw)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(headerSize + dirEntrySize*spec.VocabSize)
	for term := range spec.VocabSize {
		df := int64(spec.DocFreq(workload.TermID(term)))
		want += 2 * (blockCount(df)*blockRefSize + df*PostingSize)
	}
	if img.Bytes() != want {
		t.Fatalf("image is %d bytes, the raw layout needs %d", img.Bytes(), want)
	}
	if img.Spec() != spec {
		t.Fatalf("Spec() = %+v, want %+v", img.Spec(), spec)
	}
}

func TestStampDeviceTooSmall(t *testing.T) {
	spec := testSpec()
	img, err := BuildImage(spec, CodecRaw)
	if err != nil {
		t.Fatal(err)
	}
	dev := storage.NewMemDevice("tiny", img.Bytes()/2, simclock.New(), storage.DefaultMemParams())
	if _, err := img.Stamp(dev); err == nil || !strings.Contains(err.Error(), "needs") {
		t.Fatalf("expected capacity error, got %v", err)
	}
}

func TestBuildImageRejectsInvalidSpec(t *testing.T) {
	spec := testSpec()
	spec.NumDocs = 0
	if _, err := BuildImage(spec, CodecRaw); err == nil {
		t.Fatal("expected validation error for zero-doc spec")
	}
}

// TestImageGoldenCRC pins the serialized image, byte for byte, for each
// codec on one small fixed collection. The on-device layout is what every
// simulated number is computed from, so a change that moves it must say so
// here; the values were computed before BuildImage's sort changed library.
func TestImageGoldenCRC(t *testing.T) {
	for _, c := range []struct {
		codec CodecID
		bytes int64
		crc   uint32
	}{
		{CodecRaw, 194436, 0xf71b0e70},
		{CodecGVarint, 111929, 0x34c0fbcc},
	} {
		img, err := BuildImage(testSpec(), c.codec)
		if err != nil {
			t.Fatal(err)
		}
		if got := crc32.ChecksumIEEE(img.data); img.Bytes() != c.bytes || got != c.crc {
			t.Errorf("%s image: %d bytes, CRC-32 %#08x; golden %d bytes, %#08x",
				c.codec, img.Bytes(), got, c.bytes, c.crc)
		}
	}
}

// smallScaleSpec is the collection of experiments.SmallScale (600 k docs,
// 2 500 terms), which this package cannot import.
func smallScaleSpec() workload.CollectionSpec {
	spec := workload.DefaultCollection(600_000)
	spec.VocabSize = 2500
	spec.MaxDFShare = 0.2
	return spec
}

// TestBuildImageMatchesSortReference holds BuildImage, byte for byte, to the
// builder it replaced: postings from a modulo walk and math.Pow, doc order
// from a comparison sort, payloads appended a byte at a time. The doc counts
// straddle the radix digit boundaries, up to keys one bit past three digits
// (2^24+1, where few lists hold the one such doc) and two bits past (2^26,
// where most postings need the fourth digit). It also requires the image to
// hold no spare capacity.
func TestBuildImageMatchesSortReference(t *testing.T) {
	specs := []workload.CollectionSpec{testSpec(), smallScaleSpec()}
	for _, n := range []int{1, 255, 256, 257, 65_536, 65_537, 1<<24 + 1, 1 << 26} {
		spec := workload.DefaultCollection(n)
		spec.VocabSize = 4
		switch {
		case n <= 65_537:
			spec.MaxDFShare = 1 // term 0 lists every doc
		case n == 1<<26:
			spec.MaxDFShare = 0.004 // 268 k postings, not 6.7 M
		}
		specs = append(specs, spec)
	}
	for _, spec := range specs {
		for _, codec := range []CodecID{CodecRaw, CodecGVarint} {
			img, err := BuildImage(spec, codec)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%d docs × %d terms, %s", spec.NumDocs, spec.VocabSize, codec)
			if want := refBuildImage(spec, codec); !bytes.Equal(img.data, want) {
				i := 0
				for i < min(len(want), len(img.data)) && img.data[i] == want[i] {
					i++
				}
				t.Fatalf("%s: image differs from the reference at byte %d (%d vs %d bytes)", name, i, len(img.data), len(want))
			}
			if cap(img.data) != len(img.data) {
				t.Errorf("%s: image holds %d bytes in a %d-byte buffer", name, len(img.data), cap(img.data))
			}
		}
	}
}

// refBuildImage serializes spec the way BuildImage did before it was tuned:
// each list generated whole, doc order by slices.SortFunc, every payload and
// directory appended piece by piece.
func refBuildImage(spec workload.CollectionSpec, codec CodecID) []byte {
	v := spec.VocabSize
	var lists, docs [][]byte
	var refs []BlockRef
	nRefs := 0
	for term := 0; term < v; term++ {
		ps := refPostings(spec, workload.TermID(term))
		payload, lr := refEncodeList(codec, ps)
		lists = append(lists, payload)
		slices.SortFunc(ps, func(a, b workload.Posting) int { return cmp.Compare(a.Doc, b.Doc) })
		payload, dr := refEncodeList(codec, ps)
		docs = append(docs, payload)
		refs = append(append(refs, lr...), dr...)
		nRefs += len(lr) + len(dr)
	}
	out := append([]byte(nil), magic[:]...)
	out = binary.LittleEndian.AppendUint32(out, indexVersion)
	out = binary.LittleEndian.AppendUint64(out, uint64(v))
	out = binary.LittleEndian.AppendUint64(out, uint64(spec.NumDocs))
	out = binary.LittleEndian.AppendUint32(out, uint32(codec))
	listOff := uint64(headerSize + dirEntrySize*v + nRefs*blockRefSize)
	docOff := listOff
	for _, l := range lists {
		docOff += uint64(len(l))
	}
	for term := 0; term < v; term++ {
		out = binary.LittleEndian.AppendUint64(out, listOff)
		out = binary.LittleEndian.AppendUint64(out, uint64(spec.DocFreq(workload.TermID(term))))
		out = binary.LittleEndian.AppendUint64(out, uint64(len(lists[term])))
		out = binary.LittleEndian.AppendUint64(out, docOff)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(docs[term])))
		listOff += uint64(len(lists[term]))
		docOff += uint64(len(docs[term]))
	}
	for _, r := range refs {
		out = binary.LittleEndian.AppendUint32(out, r.MaxDoc)
		out = binary.LittleEndian.AppendUint32(out, r.Off)
		out = binary.LittleEndian.AppendUint32(out, r.Count)
	}
	for _, l := range lists {
		out = append(out, l...)
	}
	for _, d := range docs {
		out = append(out, d...)
	}
	return out
}

// refPostings generates term t's list as workload.Postings did before it was
// tuned: a modulo per step of the affine walk, math.Pow per TF.
func refPostings(s workload.CollectionSpec, t workload.TermID) []workload.Posting {
	df := s.DocFreq(t)
	rng := simclock.NewRNG(s.Seed).Split(uint64(t) + 1)
	n := uint64(s.NumDocs)
	start := rng.Uint64() % n
	step := rng.Uint64()%n | 1
	coprime := func(a, b uint64) bool {
		for b != 0 {
			a, b = b, a%b
		}
		return a == 1
	}
	for !coprime(step, n) {
		step += 2
		if step >= n {
			step = 1
		}
	}
	out := make([]workload.Posting, df)
	doc := start
	for i := range out {
		frac := 0.0
		if df > 1 {
			frac = float64(i) / float64(df-1)
		}
		tf := float64(s.MaxTF) * math.Pow(1-frac, 2)
		if tf < 1 {
			tf = 1
		}
		out[i] = workload.Posting{Doc: uint32(doc), TF: uint16(tf)}
		doc = (doc + step) % n
	}
	return out
}

// refEncodeList block-encodes ps a byte at a time.
func refEncodeList(codec CodecID, ps []workload.Posting) ([]byte, []BlockRef) {
	var out []byte
	var refs []BlockRef
	for i := 0; i < len(ps); i += BlockLen {
		block := ps[i:min(i+BlockLen, len(ps))]
		ref := BlockRef{Off: uint32(len(out)), Count: uint32(len(block))}
		for _, p := range block {
			ref.MaxDoc = max(ref.MaxDoc, p.Doc)
		}
		refs = append(refs, ref)
		if codec == CodecRaw {
			for _, p := range block {
				out = binary.LittleEndian.AppendUint32(out, p.Doc)
				out = binary.LittleEndian.AppendUint16(out, p.TF)
			}
			continue
		}
		var prev uint32
		for g := 0; g < len(block); g += 4 {
			grp := block[g:min(g+4, len(block))]
			tagPos := len(out)
			out = append(out, 0)
			for k, p := range grp {
				z := zigzag32(int32(p.Doc - prev))
				prev = p.Doc
				bl := 1
				for z >= 1<<(8*bl) && bl < 4 {
					bl++
				}
				out[tagPos] |= byte(bl-1) << (2 * k)
				for j := 0; j < bl; j++ {
					out = append(out, byte(z>>(8*j)))
				}
			}
			for _, p := range grp {
				tf := uint32(p.TF)
				for ; tf >= 0x80; tf >>= 7 {
					out = append(out, byte(tf)|0x80)
				}
				out = append(out, byte(tf))
			}
		}
	}
	return out, refs
}

// BenchmarkBuildImage measures building the SmallScale image under each
// codec, the set-up cost every distinct collection in a sweep pays once.
func BenchmarkBuildImage(b *testing.B) {
	spec := smallScaleSpec()
	for _, codec := range []CodecID{CodecRaw, CodecGVarint} {
		b.Run(codec.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildImage(spec, codec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStampHDD measures the host cost of giving one more system its
// index: a fresh simulated HDD stamped from the shared SmallScale image
// (600 k docs, 17.5 MiB). Run with -benchmem: B/op is the memory a system
// adds on top of the image.
func BenchmarkStampHDD(b *testing.B) {
	img, err := BuildImage(smallScaleSpec(), CodecRaw)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hdd := disksim.New("hdd", simclock.New(), disksim.DefaultParams(img.Bytes()+(1<<20)))
		if _, err := img.Stamp(hdd); err != nil {
			b.Fatal(err)
		}
	}
}
