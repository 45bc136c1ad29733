package index

// Block-compressed posting codecs.
//
// Every posting list — impact-ordered and doc-sorted alike — is encoded as
// fixed-count blocks of BlockLen postings. A per-block BlockRef (max doc,
// byte offset, posting count) lives in the in-memory block directory
// (serialized after the term directory, see index.go), so readers can
// address any block without touching the payload. Two codecs share the
// layout:
//
//   - CodecRaw: 6 bytes per posting (doc uint32, tf uint16), the fixed-width
//     baseline. Block boundaries are purely directory constructs.
//   - CodecGVarint: per block, doc IDs are delta-encoded against the
//     previous doc (zigzag of the two's-complement uint32 difference, so
//     unordered impact lists encode losslessly too) and packed group-varint
//     style — one tag byte per group of four docs giving each delta's byte
//     length (1–4), then the truncated little-endian deltas — followed by
//     the group's term frequencies as LEB128 varints. The delta base resets
//     to zero at every block start, keeping blocks independently decodable
//     for skip-driven access.
//
// BlockCursor is the zero-copy read side. It hands a block out at a time as
// packed PostingSize-byte records, the raw layout: a raw block is returned
// where it lies in the device-returned buffer, and a gvarint block is
// decoded straight into that form, with no intermediate []workload.Posting.

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"hybridstore/internal/workload"
)

// BlockLen is the posting count per block (the last block of a list may
// hold fewer).
const BlockLen = 128

// CodecID selects a posting-block encoding.
type CodecID uint8

// Available codecs.
const (
	CodecRaw CodecID = iota
	CodecGVarint
)

// String names the codec (the -codec flag values).
func (c CodecID) String() string {
	switch c {
	case CodecRaw:
		return "raw"
	case CodecGVarint:
		return "gvarint"
	default:
		return fmt.Sprintf("CodecID(%d)", uint8(c))
	}
}

// Valid reports whether c is a known codec.
func (c CodecID) Valid() bool { return c == CodecRaw || c == CodecGVarint }

// ParseCodec maps a -codec flag value to a CodecID.
func ParseCodec(name string) (CodecID, error) {
	switch name {
	case "raw":
		return CodecRaw, nil
	case "gvarint":
		return CodecGVarint, nil
	default:
		return 0, fmt.Errorf("index: unknown codec %q (want raw or gvarint)", name)
	}
}

// BlockRef locates one block inside a list payload: the skip entry.
type BlockRef struct {
	// MaxDoc is the highest document ID in the block. On doc-sorted lists
	// it is the block's last doc and drives skip-seeking; on impact lists
	// it is informational.
	MaxDoc uint32
	// Off is the block's byte offset relative to the list payload start.
	Off uint32
	// Count is the number of postings in the block (BlockLen except for a
	// list's final block).
	Count uint32
}

// zigzag32 maps a signed delta to an unsigned value with small magnitudes
// encoding short.
func zigzag32(v int32) uint32 { return uint32((v << 1) ^ (v >> 31)) }

// unzigzag32 inverts zigzag32.
func unzigzag32(z uint32) int32 { return int32(z>>1) ^ -int32(z&1) }

// appendBlockRaw encodes ps as fixed-width postings.
func appendBlockRaw(dst []byte, ps []workload.Posting) []byte {
	n := len(dst)
	dst = slices.Grow(dst, len(ps)*PostingSize)[:n+len(ps)*PostingSize]
	for i, p := range ps {
		EncodePosting(dst[n+i*PostingSize:], p)
	}
	return dst
}

// appendBlockGVarint encodes ps as delta-packed groups; the delta base is
// zero so the block decodes independently. Each group is written into
// gvGroupMaxBytes of spare capacity with whole 4-byte delta stores, each
// overwritten past its length by what follows it.
func appendBlockGVarint(dst []byte, ps []workload.Posting) []byte {
	var prev uint32
	for g := 0; g < len(ps); g += 4 {
		n := len(dst)
		dst = slices.Grow(dst, gvGroupMaxBytes)
		out := dst[n : n+gvGroupMaxBytes]
		grp := ps[g:min(g+4, len(ps))]
		tag, p := byte(0), 1
		for k, q := range grp {
			z := zigzag32(int32(q.Doc - prev))
			prev = q.Doc
			binary.LittleEndian.PutUint32(out[p:], z)
			extra := (bits.Len32(z|1) - 1) / 8 // bytes past the first
			tag |= byte(extra) << (2 * k)
			p += 1 + extra
		}
		out[0] = tag
		for _, q := range grp {
			v := uint32(q.TF)
			for ; v >= 0x80; v >>= 7 {
				out[p] = byte(v) | 0x80
				p++
			}
			out[p] = byte(v)
			p++
		}
		dst = dst[:n+p]
	}
	return dst
}

// EncodeList appends ps to dst as codec blocks of BlockLen postings,
// appending one BlockRef per block to refs. Block offsets are relative to
// the first byte this call appends (the list payload start). Gvarint
// blocks may also write junk into dst's capacity past the returned length.
func EncodeList(dst []byte, refs []BlockRef, c CodecID, ps []workload.Posting) ([]byte, []BlockRef) {
	base := len(dst)
	for i := 0; i < len(ps); i += BlockLen {
		block := ps[i:min(i+BlockLen, len(ps))]
		var maxDoc uint32
		for _, p := range block {
			maxDoc = max(maxDoc, p.Doc)
		}
		refs = append(refs, BlockRef{MaxDoc: maxDoc, Off: uint32(len(dst) - base), Count: uint32(len(block))})
		switch c {
		case CodecGVarint:
			dst = appendBlockGVarint(dst, block)
		default:
			dst = appendBlockRaw(dst, block)
		}
	}
	return dst, refs
}

// gvGroupMaxBytes is the most one full group of four postings can occupy:
// the tag byte, four 4-byte deltas and four 3-byte TF varints.
const gvGroupMaxBytes = 1 + 4*4 + 4*3

// gvSlack is the fixed view the gvarint fast path reads one group through:
// the tag byte and four 4-byte delta loads, the last starting at byte 13 at
// most (17 bytes), plus one 8-byte load of the group's TFs, starting at byte
// 17 at most. While the view lies inside the buffer no tag or varint the
// device supplies can carry a load past its end, so none is bounds-checked.
const gvSlack = 17 + 8

// gvShape is the layout a group's tag byte gives: where each delta starts,
// which bytes of a 4-byte load at that offset are the delta's, and where the
// TF varints start.
type gvShape struct {
	off  [4]uint8
	mask [4]uint32
	tfs  uint8
}

// gvShapes maps every tag byte to its group shape, so a group's four delta
// loads depend on the tag alone, not on one another's lengths.
var gvShapes = func() (t [256]gvShape) {
	for tag := range t {
		s := &t[tag]
		p := 1
		for j := range 4 {
			bl := tag>>(2*j)&3 + 1
			s.off[j], s.mask[j] = uint8(p), 0xffffffff>>(32-8*bl)
			p += bl
		}
		s.tfs = uint8(p)
	}
	return t
}()

// BlockCursor decodes one block's postings from an encoded buffer. Decode is
// the bulk kernel: it hands out a block's postings up to BlockLen at a time
// as packed PostingSize-byte records, the raw codec's layout, read with
// DecodePosting. A raw block is already in that form, so Decode returns a
// view of it; a gvarint block is decoded into caller-supplied scratch. Next
// hands the same postings out doc-at-a-time, from batches the cursor decodes
// into its own scratch with that kernel. Use one or the other between Resets.
// The cursor allocates nothing, so hot paths can embed one and Reset it per
// block.
type BlockCursor struct {
	codec CodecID
	buf   []byte
	count int
	done  int    // postings decoded so far
	pos   int    // byte position of the next undecoded posting (gvarint: group)
	prev  uint32 // gvarint delta base
	err   error

	// Next's batch: bytes [k, n) of buf (raw) or of scratch (gvarint) are
	// records decoded but not yet handed out.
	scratch [BlockLen * PostingSize]byte
	k, n    int
}

// Reset points the cursor at a block payload holding count postings.
func (c *BlockCursor) Reset(codec CodecID, buf []byte, count int) {
	c.codec, c.buf, c.count = codec, buf, count
	c.done, c.pos, c.prev, c.err = 0, 0, 0, nil
	c.n, c.k = 0, 0
}

// Err returns the first decode error (nil on clean exhaustion).
func (c *BlockCursor) Err() error { return c.err }

// Next returns the next posting, or ok=false at block end or on error. A
// cursor must not be used after Next returns false; check Err for truncation
// or corruption.
func (c *BlockCursor) Next() (workload.Posting, bool) {
	if c.k >= c.n && !c.refill() {
		return workload.Posting{}, false
	}
	recs := c.scratch[:]
	if c.codec == CodecRaw {
		recs = c.buf
	}
	p := DecodePosting(recs[c.k:])
	c.k += PostingSize
	return p, true
}

// refill decodes Next's next batch and notes where its records lie: a raw
// batch is the view of buf that ends where decoding stopped.
func (c *BlockCursor) refill() bool {
	recs, _ := c.Decode(&c.scratch)
	c.k, c.n = 0, len(recs)
	if c.codec == CodecRaw {
		c.k, c.n = c.pos-len(recs), c.pos
	}
	return len(recs) > 0
}

// Decode returns the block's next postings as packed records — all of them,
// or BlockLen at a time when the directory entry claims more, so a count read
// from a device is drained in batches rather than trusted. A raw block's
// records are a view of the buffer Reset was given; a gvarint block's are
// decoded into scratch. Either way they are valid until the next call on the
// cursor. It returns no records and nil once the block is exhausted. On a
// truncated or corrupt block it returns the records decoded before the fault
// together with the error, and none and the same error from then on.
func (c *BlockCursor) Decode(scratch *[BlockLen * PostingSize]byte) ([]byte, error) {
	if c.err != nil || c.done >= c.count {
		return nil, c.err
	}
	want := min(c.count-c.done, BlockLen)
	n := 0
	var recs []byte
	switch c.codec {
	case CodecRaw:
		n = min(want, (len(c.buf)-c.pos)/PostingSize)
		end := c.pos + n*PostingSize
		recs, c.pos = c.buf[c.pos:end:end], end
		if n < want {
			c.err = errRawTruncated(c.done+n, c.count)
		}
	case CodecGVarint:
		n = c.decodeGVarint(scratch, want)
		recs = scratch[:n*PostingSize]
	default:
		c.err = fmt.Errorf("index: unknown codec %d", c.codec)
	}
	c.done += n
	return recs, c.err
}

// errRawTruncated is built out of line: it is cold, and its fmt arguments
// would otherwise be charged to Decode.
//
//go:noinline
func errRawTruncated(at, count int) error {
	return fmt.Errorf("index: raw block truncated at posting %d/%d", at, count)
}

// decodeGVarint decodes want postings into out group by group: as many as it
// can through decodeFast, and each group that one declines — the last groups
// of a block, short of gvSlack bytes or of four postings, and a group whose
// TFs are not all one or all two bytes long — through decodeGroupCareful,
// which checks every byte and names the fault. A faulty group delivers none
// of its postings.
func (c *BlockCursor) decodeGVarint(out *[BlockLen * PostingSize]byte, want int) int {
	k := 0
	for {
		k = c.decodeFast(out, k, want)
		n := min(want-k, 4)
		if n == 0 || !c.decodeGroupCareful(out[k*PostingSize:(k+n)*PostingSize], c.done+k) {
			return k
		}
		k += n
	}
}

// decodeFast decodes whole groups of four into out from posting k on while
// want leaves room for one and a gvSlack view of the buffer remains, and
// returns how far it got. A group's deltas are four masked loads at the
// offsets its tag's shape gives; its TFs come from one 8-byte load: four
// single bytes when no continuation bit is set in the first four, or four
// two-byte varints when exactly bytes 0, 2, 4 and 6 carry one. It stops
// short of any other group and leaves it to decodeGroupCareful: one that
// mixes the two lengths (an impact-ordered list has at most one, where its
// TFs fall below 128), one with a longer TF, or a faulty one.
func (c *BlockCursor) decodeFast(out *[BlockLen * PostingSize]byte, k, want int) int {
	rest, prev := c.buf[c.pos:], c.prev
fast:
	for ; want-k >= 4 && len(rest) >= gvSlack; k += 4 {
		g := (*[gvSlack]byte)(rest)
		s := &gvShapes[g[0]]
		d0 := prev + uint32(unzigzag32(binary.LittleEndian.Uint32(g[s.off[0]&15:])&s.mask[0]))
		d1 := d0 + uint32(unzigzag32(binary.LittleEndian.Uint32(g[s.off[1]&15:])&s.mask[1]))
		d2 := d1 + uint32(unzigzag32(binary.LittleEndian.Uint32(g[s.off[2]&15:])&s.mask[2]))
		d3 := d2 + uint32(unzigzag32(binary.LittleEndian.Uint32(g[s.off[3]&15:])&s.mask[3]))
		e := min(int(s.tfs), gvSlack-8)
		x := binary.LittleEndian.Uint64(g[e:])
		var tf [4]uint16
		n := 4
		switch {
		case x&0x80808080 == 0: // four one-byte TFs
			tf = [4]uint16{uint16(x & 0xff), uint16(x >> 8 & 0xff), uint16(x >> 16 & 0xff), uint16(x >> 24 & 0xff)}
		case x&0x8080808080808080 == 0x0080008000800080: // four two-byte TFs
			y := x&0x007f007f007f007f | x>>1&0x3f803f803f803f80
			tf, n = [4]uint16{uint16(y), uint16(y >> 16), uint16(y >> 32), uint16(y >> 48)}, 8
		default:
			break fast
		}
		r := (*[4 * PostingSize]byte)(out[((k>>2)&(BlockLen/4-1))*4*PostingSize:])
		EncodePosting(r[0:], workload.Posting{Doc: d0, TF: tf[0]})
		EncodePosting(r[PostingSize:], workload.Posting{Doc: d1, TF: tf[1]})
		EncodePosting(r[2*PostingSize:], workload.Posting{Doc: d2, TF: tf[2]})
		EncodePosting(r[3*PostingSize:], workload.Posting{Doc: d3, TF: tf[3]})
		rest, prev = rest[e+n:], d3
	}
	c.pos, c.prev = len(c.buf)-len(rest), prev
	return k
}

// decodeGroupCareful decodes the group of len(recs)/PostingSize ≤ 4 postings
// at c.pos into recs one bounds-checked byte at a time. When the group is
// truncated or a TF overflows it sets c.err, naming the group's first posting
// (number at), and reports false with the position unmoved.
func (c *BlockCursor) decodeGroupCareful(recs []byte, at int) bool {
	buf, pos, prev := c.buf, c.pos, c.prev
	var docs [4]uint32
	n := min(len(recs)/PostingSize, len(docs))
	if pos >= len(buf) {
		c.err = fmt.Errorf("index: gvarint block truncated at group tag (posting %d/%d)", at, c.count)
		return false
	}
	tag := buf[pos]
	pos++
	for k := range docs[:n] {
		bl := int((tag>>(2*k))&3) + 1
		if pos+bl > len(buf) {
			c.err = fmt.Errorf("index: gvarint block truncated in doc deltas (posting %d/%d)", at, c.count)
			return false
		}
		var z uint32
		for j := 0; j < bl; j++ {
			z |= uint32(buf[pos+j]) << (8 * j)
		}
		pos += bl
		prev += uint32(unzigzag32(z))
		docs[k] = prev
	}
	for k, d := range docs[:n] {
		var v uint32
		shift := 0
		for {
			if pos >= len(buf) {
				c.err = fmt.Errorf("index: gvarint block truncated in tf varints (posting %d/%d)", at, c.count)
				return false
			}
			b := buf[pos]
			pos++
			v |= uint32(b&0x7f) << shift
			if b&0x80 == 0 {
				break
			}
			shift += 7
			if shift > 14 {
				c.err = fmt.Errorf("index: gvarint tf varint overflows uint16 (posting %d/%d)", at, c.count)
				return false
			}
		}
		if v > 0xffff {
			c.err = fmt.Errorf("index: gvarint tf %d overflows uint16 (posting %d/%d)", v, at, c.count)
			return false
		}
		EncodePosting(recs[k*PostingSize:], workload.Posting{Doc: d, TF: uint16(v)})
	}
	c.pos, c.prev = pos, prev
	return true
}
