package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hybridstore/internal/workload"
)

// refCursor is the block decoder as it was before the bulk kernel: one
// posting per call, a codec switch on each, gvarint groups decoded a
// bounds-checked byte at a time into a four-entry scratch. It is slow and
// obviously right, and exists so the differential tests can require
// BlockCursor to deliver the same postings, stop at the same one and fail
// on the same inputs.
type refCursor struct {
	codec CodecID
	buf   []byte
	count int
	i     int // postings emitted
	pos   int // byte position (gvarint)
	prev  uint32
	gdocs [4]uint32
	gtfs  [4]uint16
	gn    int // postings decoded into the group scratch
	gi    int // next group-scratch entry to emit
	err   error
}

func (c *refCursor) next() (workload.Posting, bool) {
	if c.err != nil || c.i >= c.count {
		return workload.Posting{}, false
	}
	switch c.codec {
	case CodecRaw:
		off := c.i * PostingSize
		if off+PostingSize > len(c.buf) {
			c.err = fmt.Errorf("index: raw block truncated at posting %d/%d", c.i, c.count)
			return workload.Posting{}, false
		}
		c.i++
		return DecodePosting(c.buf[off:]), true
	case CodecGVarint:
		if c.gi >= c.gn {
			if !c.fillGroup() {
				return workload.Posting{}, false
			}
		}
		p := workload.Posting{Doc: c.gdocs[c.gi], TF: c.gtfs[c.gi]}
		c.gi++
		c.i++
		return p, true
	default:
		c.err = fmt.Errorf("index: unknown codec %d", c.codec)
		return workload.Posting{}, false
	}
}

func (c *refCursor) fillGroup() bool {
	n := c.count - c.i
	if n > 4 {
		n = 4
	}
	if c.pos >= len(c.buf) {
		c.err = fmt.Errorf("index: gvarint block truncated at group tag (posting %d/%d)", c.i, c.count)
		return false
	}
	tag := c.buf[c.pos]
	c.pos++
	for k := 0; k < n; k++ {
		bl := int((tag>>(2*k))&3) + 1
		if c.pos+bl > len(c.buf) {
			c.err = fmt.Errorf("index: gvarint block truncated in doc deltas (posting %d/%d)", c.i, c.count)
			return false
		}
		var z uint32
		for j := 0; j < bl; j++ {
			z |= uint32(c.buf[c.pos+j]) << (8 * j)
		}
		c.pos += bl
		c.prev += uint32(unzigzag32(z))
		c.gdocs[k] = c.prev
	}
	for k := 0; k < n; k++ {
		var v uint32
		shift := 0
		for {
			if c.pos >= len(c.buf) {
				c.err = fmt.Errorf("index: gvarint block truncated in tf varints (posting %d/%d)", c.i, c.count)
				return false
			}
			b := c.buf[c.pos]
			c.pos++
			v |= uint32(b&0x7f) << shift
			if b&0x80 == 0 {
				break
			}
			shift += 7
			if shift > 14 {
				c.err = fmt.Errorf("index: gvarint tf varint overflows uint16 (posting %d/%d)", c.i, c.count)
				return false
			}
		}
		if v > 0xffff {
			c.err = fmt.Errorf("index: gvarint tf %d overflows uint16 (posting %d/%d)", v, c.i, c.count)
			return false
		}
		c.gtfs[k] = uint16(v)
	}
	c.gn, c.gi = n, 0
	return true
}

// requireSameAsRefCursor decodes buf as one block of count postings three
// ways — the reference, BlockCursor.Decode in batches, BlockCursor.Next —
// and requires the same postings, the same number delivered before a fault,
// and an error exactly when (and worded as) the reference errors. A panic in
// either BlockCursor path fails the test by itself.
func requireSameAsRefCursor(t testing.TB, codec CodecID, buf []byte, count int) {
	t.Helper()
	ref := refCursor{codec: codec, buf: buf, count: count}
	var want []workload.Posting
	for {
		p, ok := ref.next()
		if !ok {
			break
		}
		want = append(want, p)
	}

	check := func(path string, got []workload.Posting, err error) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%v %s: %d postings delivered, reference %d (err %v, reference %v)",
				codec, path, len(got), len(want), err, ref.err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v %s: posting %d is %+v, reference %+v", codec, path, i, got[i], want[i])
			}
		}
		if (err == nil) != (ref.err == nil) || (err != nil && err.Error() != ref.err.Error()) {
			t.Fatalf("%v %s: error %v, reference %v", codec, path, err, ref.err)
		}
	}

	var cur BlockCursor
	var scratch [BlockLen * PostingSize]byte
	var got []workload.Posting
	cur.Reset(codec, buf, count)
	for {
		recs, err := cur.Decode(&scratch)
		n := len(recs) / PostingSize
		if len(recs) != n*PostingSize {
			t.Fatalf("%v: Decode returned %d bytes, not whole records", codec, len(recs))
		}
		for i := 0; i < n; i++ {
			got = append(got, DecodePosting(recs[i*PostingSize:]))
		}
		if err != nil || n == 0 {
			if recs2, err2 := cur.Decode(&scratch); len(recs2) != 0 || err2 != err {
				t.Fatalf("%v: Decode after the end returned %d bytes, %v; want 0, %v", codec, len(recs2), err2, err)
			}
			break
		}
		if n < BlockLen && len(got) < count {
			t.Fatalf("%v: short batch of %d without an error at posting %d/%d", codec, n, len(got), count)
		}
	}
	check("Decode", got, cur.Err())

	got = got[:0]
	cur.Reset(codec, buf, count)
	for {
		p, ok := cur.Next()
		if !ok {
			break
		}
		got = append(got, p)
	}
	check("Next", got, cur.Err())
}

// gvGroup hand-assembles one gvarint group: a tag, the deltas truncated to
// the byte lengths the tag states, and the TF bytes verbatim.
func gvGroup(lens [4]int, deltas [4]uint32, tfBytes ...byte) []byte {
	var tag byte
	for k, bl := range lens {
		tag |= byte(bl-1) << (2 * k)
	}
	out := []byte{tag}
	for k, bl := range lens {
		var le [4]byte
		binary.LittleEndian.PutUint32(le[:], deltas[k])
		out = append(out, le[:bl]...)
	}
	return append(out, tfBytes...)
}

// TestBlockCursorMatchesReference runs the kernel against the reference
// decoder over well-formed lists and the malformed shapes a device could
// return: blocks cut at every byte (inside a tag, a delta, a TF varint),
// directory counts larger than the payload and larger than BlockLen, TF
// varints of three bytes, four bytes and values past uint16 — each both deep
// inside a block, where the kernel's fast path runs, and in the last groups,
// where its careful path does.
func TestBlockCursorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, codec := range []CodecID{CodecRaw, CodecGVarint} {
		for _, n := range []int{1, 3, 4, 5, 31, BlockLen - 1, BlockLen} {
			for _, sorted := range []bool{true, false} {
				buf, refs := EncodeList(nil, nil, codec, randomPostings(rng, n, sorted))
				if len(refs) != 1 {
					t.Fatalf("n=%d: %d blocks", n, len(refs))
				}
				for cut := 0; cut <= len(buf); cut++ {
					requireSameAsRefCursor(t, codec, buf[:cut], n)
				}
				for _, count := range []int{0, 1, n - 1, n + 1, n + 4, BlockLen + 1, 3 * BlockLen} {
					requireSameAsRefCursor(t, codec, buf, count)
				}
			}
		}
	}

	// Raw blocks are directory constructs: one entry may cover several.
	raw, _ := EncodeList(nil, nil, CodecRaw, randomPostings(rng, 3*BlockLen+17, false))
	for _, count := range []int{BlockLen + 1, 2 * BlockLen, 3*BlockLen + 17, 3*BlockLen + 18, 1 << 20} {
		requireSameAsRefCursor(t, CodecRaw, raw, count)
		requireSameAsRefCursor(t, CodecRaw, raw[:len(raw)-3], count)
	}

	// A gvarint payload of 4·BlockLen small postings under one entry: the
	// delta base and byte position must carry across Decode batches.
	small := make([]workload.Posting, 4*BlockLen)
	for i := range small {
		small[i] = workload.Posting{Doc: uint32(3 * i), TF: uint16(1 + i%300)}
	}
	long := appendBlockGVarint(nil, small)
	for _, count := range []int{BlockLen + 1, 2*BlockLen + 2, 4 * BlockLen, 4*BlockLen + 1} {
		requireSameAsRefCursor(t, CodecGVarint, long, count)
		requireSameAsRefCursor(t, CodecGVarint, long[:len(long)/2], count)
	}

	// Oversized TFs. pad groups put the bad group on the fast path (enough
	// bytes follow it) or leave it to the careful tail (none do).
	lens, deltas := [4]int{1, 2, 3, 4}, [4]uint32{7, 300, 70000, 1 << 30}
	good := gvGroup(lens, deltas, 1, 0x81, 0x01, 0xff, 0xff, 0x03, 5) // 1, 129, 65535, 5
	bad := map[string][]byte{
		"three-byte tf past 65535": gvGroup(lens, deltas, 1, 0xff, 0xff, 0x04, 2, 3),
		"four-byte tf":             gvGroup(lens, deltas, 1, 2, 0x80, 0x80, 0x80, 0x01, 3),
		"largest three-byte tf":    gvGroup(lens, deltas, 0xff, 0xff, 0x7f, 1, 2, 3),
	}
	for name, group := range bad {
		for _, lead := range []int{0, 1, 5} {
			for _, trail := range []int{0, 1, 5} {
				var buf []byte
				for i := 0; i < lead; i++ {
					buf = append(buf, good...)
				}
				buf = append(buf, group...)
				for i := 0; i < trail; i++ {
					buf = append(buf, good...)
				}
				count := 4 * (lead + 1 + trail)
				requireSameAsRefCursor(t, CodecGVarint, buf, count)
				var cur BlockCursor
				var scratch [BlockLen * PostingSize]byte
				cur.Reset(CodecGVarint, buf, count)
				if recs, err := cur.Decode(&scratch); err == nil || len(recs) != 4*lead*PostingSize {
					t.Fatalf("%s, %d groups before, %d after: delivered %d postings, err %v", name, lead, trail, len(recs)/PostingSize, err)
				}
			}
		}
	}
	requireSameAsRefCursor(t, CodecGVarint, bytes.Repeat(good, 8), 32)

	// The fast path's widest reach: four 4-byte deltas put the TFs at byte
	// 17, and four two-byte TFs end the group at byte 25, the whole view.
	// Between such groups, one with one-byte TFs, and one mixing one- and
	// two-byte TFs, which the fast path leaves to the careful one and then
	// resumes after.
	wideDeltas := [4]uint32{1 << 30, 1<<31 | 7, 3 << 24, 0x01020304}
	wide := gvGroup([4]int{4, 4, 4, 4}, wideDeltas, 0x81, 0x01, 0xff, 0x7f, 0x80, 0x02, 0x90, 0x03) // 129, 16383, 256, 400
	wideOne := gvGroup([4]int{4, 4, 4, 4}, wideDeltas, 9, 8, 7, 6)
	mixed := gvGroup(lens, deltas, 0x81, 0x01, 5, 0x90, 0x02, 7) // 129, 5, 272, 7
	requireSameAsRefCursor(t, CodecGVarint, bytes.Repeat(wide, 8), 32)
	requireSameAsRefCursor(t, CodecGVarint, bytes.Repeat(slices.Concat(wide, wideOne, mixed), 6), 72)
}

// FuzzDecodeMatchesReference treats arbitrary bytes as one block under an
// arbitrary directory count, in both codecs: the kernel must agree with the
// reference decoder posting for posting and fault for fault, and never
// panic — the fast path's slack rule is what this target hunts.
func FuzzDecodeMatchesReference(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6}, uint16(1))
	f.Add(bytes.Repeat([]byte{0xff}, 64), uint16(9))
	f.Add(bytes.Repeat([]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x81, 0x82, 0x03, 0x7f}, 40), uint16(4*BlockLen))
	small := make([]workload.Posting, BlockLen)
	for i := range small {
		small[i] = workload.Posting{Doc: uint32(5 * i), TF: uint16(1 + i)}
	}
	f.Add(appendBlockGVarint(nil, small), uint16(BlockLen))
	f.Add(appendBlockGVarint(nil, small), uint16(BlockLen+1))

	f.Fuzz(func(t *testing.T, data []byte, count uint16) {
		requireSameAsRefCursor(t, CodecRaw, data, int(count))
		requireSameAsRefCursor(t, CodecGVarint, data, int(count))
	})
}
