package index

import (
	"math/rand"
	"strings"
	"testing"

	"hybridstore/internal/workload"
)

// decodeEncoded runs every block of an EncodeList result through a
// BlockCursor and returns the postings.
func decodeEncoded(t *testing.T, codec CodecID, buf []byte, refs []BlockRef) []workload.Posting {
	t.Helper()
	var out []workload.Posting
	var cur BlockCursor
	for i, ref := range refs {
		end := len(buf)
		if i+1 < len(refs) {
			end = int(refs[i+1].Off)
		}
		cur.Reset(codec, buf[ref.Off:end], int(ref.Count))
		for {
			p, ok := cur.Next()
			if !ok {
				break
			}
			out = append(out, p)
		}
		if err := cur.Err(); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
	}
	return out
}

func randomPostings(rng *rand.Rand, n int, sorted bool) []workload.Posting {
	ps := make([]workload.Posting, n)
	var doc uint32
	for i := range ps {
		if sorted {
			doc += 1 + uint32(rng.Intn(1<<16))
		} else {
			doc = rng.Uint32()
		}
		ps[i] = workload.Posting{Doc: doc, TF: uint16(rng.Intn(1 << 16))}
	}
	return ps
}

func TestEncodeListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, codec := range []CodecID{CodecRaw, CodecGVarint} {
		for _, sorted := range []bool{true, false} {
			for _, n := range []int{1, 3, 4, 5, BlockLen - 1, BlockLen, BlockLen + 1, 3*BlockLen + 17} {
				ps := randomPostings(rng, n, sorted)
				buf, refs := EncodeList(nil, nil, codec, ps)
				wantBlocks := (n + BlockLen - 1) / BlockLen
				if len(refs) != wantBlocks {
					t.Fatalf("%v n=%d: %d refs, want %d", codec, n, len(refs), wantBlocks)
				}
				got := decodeEncoded(t, codec, buf, refs)
				if len(got) != n {
					t.Fatalf("%v n=%d sorted=%v: decoded %d postings", codec, n, sorted, len(got))
				}
				for i := range got {
					if got[i] != ps[i] {
						t.Fatalf("%v n=%d sorted=%v: posting %d = %+v, want %+v",
							codec, n, sorted, i, got[i], ps[i])
					}
				}
				for bi, ref := range refs {
					maxDoc := uint32(0)
					for _, p := range ps[bi*BlockLen : min(n, (bi+1)*BlockLen)] {
						if p.Doc > maxDoc {
							maxDoc = p.Doc
						}
					}
					if ref.MaxDoc != maxDoc {
						t.Fatalf("%v block %d: MaxDoc %d, want %d", codec, bi, ref.MaxDoc, maxDoc)
					}
				}
			}
		}
	}
}

func TestGVarintSmallerOnDocSortedLists(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ps := randomPostings(rng, 4096, true)
	for i := range ps {
		ps[i].TF = uint16(1 + rng.Intn(100)) // realistic small tfs
	}
	raw, _ := EncodeList(nil, nil, CodecRaw, ps)
	gv, _ := EncodeList(nil, nil, CodecGVarint, ps)
	if len(gv) >= len(raw) {
		t.Fatalf("gvarint %d bytes >= raw %d on sorted small-tf postings", len(gv), len(raw))
	}
}

func TestEncodeListAppendsRelativeOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ps := randomPostings(rng, BlockLen+9, true)
	prefix := []byte{0xde, 0xad, 0xbe, 0xef}
	buf, refs := EncodeList(append([]byte(nil), prefix...), nil, CodecGVarint, ps)
	if string(buf[:4]) != string(prefix) {
		t.Fatal("EncodeList clobbered existing bytes")
	}
	if refs[0].Off != 0 {
		t.Fatalf("first block Off = %d, want payload-relative 0", refs[0].Off)
	}
	got := decodeEncoded(t, CodecGVarint, buf[len(prefix):], refs)
	if len(got) != len(ps) || got[len(got)-1] != ps[len(ps)-1] {
		t.Fatal("decode after prefixed encode failed")
	}
}

func TestParseCodec(t *testing.T) {
	if c, err := ParseCodec("raw"); err != nil || c != CodecRaw {
		t.Fatalf("raw: %v %v", c, err)
	}
	if c, err := ParseCodec("gvarint"); err != nil || c != CodecGVarint {
		t.Fatalf("gvarint: %v %v", c, err)
	}
	if _, err := ParseCodec("zstd"); err == nil {
		t.Fatal("accepted unknown codec name")
	}
	if CodecRaw.String() != "raw" || CodecGVarint.String() != "gvarint" {
		t.Fatal("codec names changed")
	}
	if CodecID(9).Valid() {
		t.Fatal("CodecID(9) claims validity")
	}
}

func TestBlockCursorTruncationErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ps := randomPostings(rng, 32, true)
	for _, codec := range []CodecID{CodecRaw, CodecGVarint} {
		buf, refs := EncodeList(nil, nil, codec, ps)
		var cur BlockCursor
		cur.Reset(codec, buf[:len(buf)/2], int(refs[0].Count))
		for {
			if _, ok := cur.Next(); !ok {
				break
			}
		}
		if err := cur.Err(); err == nil {
			t.Fatalf("%v: truncated block decoded cleanly", codec)
		} else if !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("%v: unexpected error %v", codec, err)
		}
	}
	var cur BlockCursor
	cur.Reset(CodecID(7), []byte{1, 2, 3}, 1)
	if _, ok := cur.Next(); ok || cur.Err() == nil {
		t.Fatal("unknown codec decoded")
	}
}

func TestBuildImageRejectsUnknownCodec(t *testing.T) {
	if _, err := BuildImage(testSpec(), CodecID(9)); err == nil {
		t.Fatal("BuildImage accepted unknown codec")
	}
}

// BenchmarkBlockCursorDecode measures the bulk kernel under each codec over
// what a query scans: the first 35 % of SmallScale-shaped impact-ordered
// lists (600 k docs, MaxDFShare 0.2; every 25th term, so list lengths span
// the vocabulary), where the TFs are highest: TF ≥ 128, two gvarint bytes,
// over the first 29 % of each list. Every record Decode returns is read back with
// DecodePosting, as the engine reads it, so a raw block, which Decode hands
// out as a view, costs that read alone.
func BenchmarkBlockCursorDecode(b *testing.B) {
	spec := smallScaleSpec()
	for _, codec := range []CodecID{CodecRaw, CodecGVarint} {
		b.Run("codec="+codec.String(), func(b *testing.B) {
			type list struct {
				buf  []byte
				refs []BlockRef
			}
			var lists []list
			postings := 0
			for t := 0; t < spec.VocabSize; t += 25 {
				ps := spec.Postings(workload.TermID(t))
				ps = ps[:(len(ps)*35+99)/100]
				buf, refs := EncodeList(nil, nil, codec, ps)
				lists = append(lists, list{buf, refs})
				postings += len(ps)
			}
			var cur BlockCursor
			var scratch [BlockLen * PostingSize]byte
			var sum uint32
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, l := range lists {
					for k, ref := range l.refs {
						end := len(l.buf)
						if k+1 < len(l.refs) {
							end = int(l.refs[k+1].Off)
						}
						cur.Reset(codec, l.buf[ref.Off:end], int(ref.Count))
						recs, err := cur.Decode(&scratch)
						if err != nil {
							b.Fatal(err)
						}
						for ; len(recs) >= PostingSize; recs = recs[PostingSize:] {
							p := DecodePosting(recs)
							sum += p.Doc + uint32(p.TF)
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*postings), "ns/posting")
			if sum == 1 {
				b.Log(sum) // keeps the reads live
			}
		})
	}
}
