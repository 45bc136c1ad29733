package index

import (
	"encoding/binary"
	"testing"

	"hybridstore/internal/workload"
)

// FuzzCodecRoundTrip feeds arbitrary bytes in as a posting list and checks
// the codec invariants: both codecs round-trip the list exactly, block
// refs agree on counts and max docs, every block decodes without error, and
// the bulk kernel agrees with the reference decoder on it. Doc IDs are taken
// raw (unordered lists are legal for impact ordering), TFs are 16-bit.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6})
	f.Add(func() []byte {
		b := make([]byte, 6*300)
		for i := range b {
			b[i] = byte(i * 7)
		}
		return b
	}())

	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 6
		if n == 0 {
			return
		}
		if n > 4*BlockLen {
			n = 4 * BlockLen
		}
		ps := make([]workload.Posting, n)
		for i := range ps {
			ps[i] = workload.Posting{
				Doc: binary.LittleEndian.Uint32(data[i*6:]),
				TF:  binary.LittleEndian.Uint16(data[i*6+4:]),
			}
		}

		rawBuf, rawRefs := EncodeList(nil, nil, CodecRaw, ps)
		gvBuf, gvRefs := EncodeList(nil, nil, CodecGVarint, ps)
		if len(rawRefs) != len(gvRefs) {
			t.Fatalf("ref counts differ: raw %d, gvarint %d", len(rawRefs), len(gvRefs))
		}
		for i := range rawRefs {
			if rawRefs[i].Count != gvRefs[i].Count || rawRefs[i].MaxDoc != gvRefs[i].MaxDoc {
				t.Fatalf("block %d refs diverge: %+v vs %+v", i, rawRefs[i], gvRefs[i])
			}
		}

		decode := func(codec CodecID, buf []byte, refs []BlockRef) []workload.Posting {
			var out []workload.Posting
			var cur BlockCursor
			for i, ref := range refs {
				end := len(buf)
				if i+1 < len(refs) {
					end = int(refs[i+1].Off)
				}
				requireSameAsRefCursor(t, codec, buf[ref.Off:end], int(ref.Count))
				cur.Reset(codec, buf[ref.Off:end], int(ref.Count))
				for {
					p, ok := cur.Next()
					if !ok {
						break
					}
					out = append(out, p)
				}
				if err := cur.Err(); err != nil {
					t.Fatalf("%v block %d: %v", codec, i, err)
				}
			}
			return out
		}
		for _, c := range []struct {
			codec CodecID
			buf   []byte
			refs  []BlockRef
		}{{CodecRaw, rawBuf, rawRefs}, {CodecGVarint, gvBuf, gvRefs}} {
			got := decode(c.codec, c.buf, c.refs)
			if len(got) != n {
				t.Fatalf("%v: decoded %d postings, want %d", c.codec, len(got), n)
			}
			for i := range got {
				if got[i] != ps[i] {
					t.Fatalf("%v posting %d: %+v != %+v", c.codec, i, got[i], ps[i])
				}
			}
		}
	})
}
