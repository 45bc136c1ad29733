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
// BlockCursor is the zero-copy read side: it decodes a block at a time
// straight from a device-returned buffer into doc and tf columns, no
// intermediate []workload.Posting.

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

// gvDeltaMask keeps the low 1–4 bytes of a 4-byte load, indexed by a tag
// field.
var gvDeltaMask = [4]uint32{0xff, 0xffff, 0xffffff, 0xffffffff}

// BlockCursor decodes one block's postings from an encoded buffer. Decode is
// the bulk kernel: it fills caller-supplied columns a whole block at a time.
// Next hands the same postings out doc-at-a-time, from a block the cursor
// decodes into its own columns with that kernel. Use one or the other between
// Resets. The cursor allocates nothing, so hot paths can embed one and Reset
// it per block.
type BlockCursor struct {
	codec CodecID
	buf   []byte
	count int
	done  int    // postings decoded so far
	pos   int    // byte position of the next undecoded posting (gvarint: group)
	prev  uint32 // gvarint delta base
	err   error

	// Next's block: docs[k:n] and tfs[k:n] are decoded but not yet handed out.
	docs [BlockLen]uint32
	tfs  [BlockLen]uint16
	n, k int
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
	k := c.k
	if k >= c.n {
		return c.refill()
	}
	c.k = k + 1
	k &= BlockLen - 1 // k < n ≤ BlockLen already; the mask tells the compiler
	return workload.Posting{Doc: c.docs[k], TF: c.tfs[k]}, true
}

// refill decodes the next batch into the cursor's own columns and hands out
// its first posting.
func (c *BlockCursor) refill() (workload.Posting, bool) {
	c.n, _ = c.Decode(&c.docs, &c.tfs)
	if c.n == 0 {
		c.k = 0
		return workload.Posting{}, false
	}
	c.k = 1
	return workload.Posting{Doc: c.docs[0], TF: c.tfs[0]}, true
}

// Decode fills docs and tfs with the block's next postings — all of them, or
// BlockLen at a time when the directory entry claims more, so a count read
// from a device is drained in batches rather than trusted — and returns how
// many it wrote. It returns 0, nil once the block is exhausted. On a
// truncated or corrupt block it returns the postings decoded before the fault
// together with the error, and 0 and the same error from then on.
func (c *BlockCursor) Decode(docs *[BlockLen]uint32, tfs *[BlockLen]uint16) (int, error) {
	if c.err != nil || c.done >= c.count {
		return 0, c.err
	}
	want := min(c.count-c.done, BlockLen)
	n := 0
	switch c.codec {
	case CodecRaw:
		n = c.decodeRaw(docs, tfs, want)
	case CodecGVarint:
		n = c.decodeGVarint(docs, tfs, want)
	default:
		c.err = fmt.Errorf("index: unknown codec %d", c.codec)
	}
	c.done += n
	return n, c.err
}

// decodeRaw loads as many of the want fixed-width postings as the buffer
// still holds.
func (c *BlockCursor) decodeRaw(docs *[BlockLen]uint32, tfs *[BlockLen]uint16, want int) int {
	n := min(want, (len(c.buf)-c.pos)/PostingSize)
	b := c.buf[c.pos : c.pos+n*PostingSize]
	d := docs[:n]
	f := tfs[:len(d)]
	for k := range d {
		if len(b) < PostingSize {
			break // never taken: it lets the compiler drop the checks below
		}
		d[k] = binary.LittleEndian.Uint32(b)
		f[k] = binary.LittleEndian.Uint16(b[4:])
		b = b[PostingSize:]
	}
	c.pos += n * PostingSize
	if n < want {
		c.err = fmt.Errorf("index: raw block truncated at posting %d/%d", c.done+n, c.count)
	}
	return n
}

// decodeGVarint decodes want postings group by group. While a whole group's
// worst case (gvGroupMaxBytes) still lies inside the buffer, no tag or varint
// the device supplies can carry an index past its end, so the group is read
// with four masked 4-byte loads and a one-byte fast path per TF. The last
// groups of a block, and a group the fast path finds an oversized TF in, go
// through decodeGroupCareful, which checks every byte and names the fault.
// A faulty group delivers none of its postings.
func (c *BlockCursor) decodeGVarint(docs *[BlockLen]uint32, tfs *[BlockLen]uint16, want int) int {
	buf, pos, prev := c.buf, c.pos, c.prev
	k := 0
fast:
	for ; want-k >= 4 && len(buf)-pos >= gvGroupMaxBytes; k += 4 {
		g := buf[pos : pos+gvGroupMaxBytes]
		gd, gt := (*[4]uint32)(docs[k:]), (*[4]uint16)(tfs[k:])
		tag := g[0]
		p := 1
		d := prev
		for j := range gd {
			bl := int(tag>>(2*j)) & 3
			d += uint32(unzigzag32(binary.LittleEndian.Uint32(g[p:]) & gvDeltaMask[bl]))
			gd[j] = d
			p += bl + 1
		}
		for j := range gt {
			v := uint32(g[p])
			p++
			if v >= 0x80 {
				b := uint32(g[p])
				p++
				v = v&0x7f | b<<7
				if b >= 0x80 {
					v = v&0x3fff | uint32(g[p])<<14
					p++
					if v > 0xffff { // a fourth byte, or a value past uint16
						break fast
					}
				}
			}
			gt[j] = uint16(v)
		}
		pos, prev = pos+p, d
	}
	c.pos, c.prev = pos, prev
	for k < want {
		n := min(want-k, 4)
		if !c.decodeGroupCareful(docs[k:k+n], tfs[k:k+n], c.done+k) {
			break
		}
		k += n
	}
	return k
}

// decodeGroupCareful decodes the group of len(docs) ≤ 4 postings at c.pos one
// bounds-checked byte at a time. When the group is truncated or a TF
// overflows it sets c.err, naming the group's first posting (number at), and
// reports false with the position unmoved.
func (c *BlockCursor) decodeGroupCareful(docs []uint32, tfs []uint16, at int) bool {
	buf, pos, prev := c.buf, c.pos, c.prev
	if pos >= len(buf) {
		c.err = fmt.Errorf("index: gvarint block truncated at group tag (posting %d/%d)", at, c.count)
		return false
	}
	tag := buf[pos]
	pos++
	for k := range docs {
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
	for k := range tfs {
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
		tfs[k] = uint16(v)
	}
	c.pos, c.prev = pos, prev
	return true
}
