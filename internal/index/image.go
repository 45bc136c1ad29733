package index

// Prebuilt index images.
//
// Synthesizing a collection's postings and encoding both payload regions is
// pure CPU work that depends only on the (CollectionSpec, CodecID) pair,
// yet every experiment point used to redo it from scratch. An Image is that
// work done once: the fully serialized index (header, term directory,
// block directory, impact-ordered payloads, doc-sorted payloads) held in
// memory, ready to be stamped onto any number of devices. Stamping issues
// the bulk-load write sequence — header and directories first, lists in
// flush-sized sequential chunks, then one write per doc-sorted payload —
// so every stamped system is charged the same simulated operations.
//
// An Image is immutable after BuildImage returns and safe for concurrent
// Stamp calls from multiple goroutines. A device that can read through
// shared bytes (baseAdopter: the simulated HDD) is handed the image itself
// rather than a copy, so N stamped systems hold the index once.

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"hybridstore/internal/storage"
	"hybridstore/internal/workload"
)

// buildFlushSize is the sequential-write granularity of the list region
// during bulk load.
const buildFlushSize = 1 << 20

// Image is a fully serialized index for one (CollectionSpec, CodecID)
// pair, reusable across devices.
type Image struct {
	spec       workload.CollectionSpec
	codec      CodecID
	data       []byte // header + directories + payloads
	headLen    int64  // end of header + term dir + block dir
	listsEnd   int64  // end of the impact-ordered payload region
	terms      []TermMeta
	docTerms   []TermMeta
	listBlocks [][]BlockRef
	docBlocks  [][]BlockRef
}

// Spec returns the collection the image serializes.
func (im *Image) Spec() workload.CollectionSpec { return im.spec }

// Codec returns the block encoding the image was built with.
func (im *Image) Codec() CodecID { return im.codec }

// Bytes returns the serialized size of the image.
func (im *Image) Bytes() int64 { return int64(len(im.data)) }

// The term directory and the read side of engine.ListSource, served from
// the image's own bytes: no device and no clock, so an engine over an Image
// computes what one over any stamped copy computes.

// NumTerms returns the vocabulary size.
func (im *Image) NumTerms() int { return len(im.terms) }

// NumDocs returns the collection size.
func (im *Image) NumDocs() int64 { return int64(im.spec.NumDocs) }

// ListBytes returns the encoded size of term t's impact-ordered list.
func (im *Image) ListBytes(t workload.TermID) int64 { return im.terms[t].Size }

// TermDF returns term t's document frequency.
func (im *Image) TermDF(t workload.TermID) int64 { return im.terms[t].DF }

// ListBlocks returns term t's impact-list block directory. Callers must not
// mutate the returned slice.
func (im *Image) ListBlocks(t workload.TermID) []BlockRef { return im.listBlocks[t] }

// DocBytes returns the encoded size of term t's doc-sorted payload.
func (im *Image) DocBytes(t workload.TermID) int64 { return im.docTerms[t].Size }

// DocBlocks returns term t's doc-sorted block directory: ascending-MaxDoc
// skip entries, one per block. Callers must not mutate the returned slice.
func (im *Image) DocBlocks(t workload.TermID) []BlockRef { return im.docBlocks[t] }

// ListRange returns the n bytes of term t's list at offset off as a view of
// the image, or nil if the range is outside the list. Callers must not
// write it.
func (im *Image) ListRange(t workload.TermID, off, n int64) []byte {
	m := im.terms[t]
	if off < 0 || n < 0 || off+n > m.Size {
		return nil
	}
	return im.data[m.Offset+off : m.Offset+off+n : m.Offset+off+n]
}

// ReadListRange fills p with term t's list bytes starting at offset off.
func (im *Image) ReadListRange(t workload.TermID, off int64, p []byte) error {
	v := im.ListRange(t, off, int64(len(p)))
	if v == nil {
		return fmt.Errorf("index: term %d range [%d,+%d) outside list of %d bytes: %w",
			t, off, len(p), im.ListBytes(t), storage.ErrOutOfRange)
	}
	copy(p, v)
	return nil
}

// BuildImage synthesizes the collection described by spec and serializes
// its inverted index into memory under the given codec.
func BuildImage(spec workload.CollectionSpec, codec CodecID) (*Image, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if !codec.Valid() {
		return nil, fmt.Errorf("index: unknown codec %d", codec)
	}
	v := spec.VocabSize
	im := &Image{spec: spec, codec: codec, terms: make([]TermMeta, v), docTerms: make([]TermMeta, v),
		listBlocks: make([][]BlockRef, v), docBlocks: make([][]BlockRef, v)}

	// DocFreq fixes all but the encoded payload sizes: the block directory,
	// and so where the payloads start, is known before a posting exists, and
	// a raw payload is PostingSize bytes per posting.
	var rawLen, nRefs int64
	for t := range im.terms {
		df := int64(spec.DocFreq(workload.TermID(t)))
		im.terms[t].DF, im.docTerms[t].DF = df, df
		rawLen += df * PostingSize
		nRefs += 2 * blockCount(df)
	}
	im.headLen = int64(headerSize+dirEntrySize*v) + nRefs*blockRefSize

	// Raw payloads are encoded in place in the image. Gvarint payloads go to
	// two scratch regions (raw size as the capacity hint) and are copied into
	// an exactly sized image once their lengths are known.
	var listBuf, docBuf []byte
	if codec == CodecRaw {
		im.data = make([]byte, im.headLen+2*rawLen)
		listBuf, docBuf = im.data[im.headLen:im.headLen:im.headLen+rawLen], im.data[im.headLen+rawLen:im.headLen+rawLen]
	} else {
		listBuf, docBuf = make([]byte, 0, rawLen), make([]byte, 0, rawLen)
	}
	refs := make([]BlockRef, 0, nRefs) // never regrows, so terms keep subslices of it
	encode := func(buf []byte, ps []workload.Posting, m *TermMeta, blocks *[]BlockRef) []byte {
		off, r := len(buf), len(refs)
		buf, refs = EncodeList(buf, refs, codec, ps)
		m.Offset, m.Size, *blocks = int64(off), int64(len(buf)-off), refs[r:len(refs):len(refs)]
		return buf
	}
	var ps, scratch []workload.Posting
	passes := (bits.Len64(uint64(spec.NumDocs-1)) + 7) / 8
	for t := 0; t < v; t++ {
		ps = spec.AppendPostings(ps[:0], workload.TermID(t))
		listBuf = encode(listBuf, ps, &im.terms[t], &im.listBlocks[t])
		docBuf = encode(docBuf, sortByDoc(ps, &scratch, passes), &im.docTerms[t], &im.docBlocks[t])
	}
	im.listsEnd = im.headLen + int64(len(listBuf))
	if codec != CodecRaw {
		im.data = make([]byte, im.listsEnd+int64(len(docBuf)))
		copy(im.data[im.headLen:], listBuf)
		copy(im.data[im.listsEnd:], docBuf)
	}

	data := im.data
	copy(data[0:4], magic[:])
	binary.LittleEndian.PutUint32(data[4:8], indexVersion)
	binary.LittleEndian.PutUint64(data[8:16], uint64(v))
	binary.LittleEndian.PutUint64(data[16:24], uint64(spec.NumDocs))
	binary.LittleEndian.PutUint32(data[24:28], uint32(codec))
	for t := range im.terms {
		im.terms[t].Offset += im.headLen
		im.docTerms[t].Offset += im.listsEnd
		d := data[headerSize+t*dirEntrySize:]
		binary.LittleEndian.PutUint64(d[0:8], uint64(im.terms[t].Offset))
		binary.LittleEndian.PutUint64(d[8:16], uint64(im.terms[t].DF))
		binary.LittleEndian.PutUint64(d[16:24], uint64(im.terms[t].Size))
		binary.LittleEndian.PutUint64(d[24:32], uint64(im.docTerms[t].Offset))
		binary.LittleEndian.PutUint64(d[32:40], uint64(im.docTerms[t].Size))
	}
	for i, r := range refs {
		d := data[headerSize+dirEntrySize*v+i*blockRefSize:]
		binary.LittleEndian.PutUint32(d[0:4], r.MaxDoc)
		binary.LittleEndian.PutUint32(d[4:8], r.Off)
		binary.LittleEndian.PutUint32(d[8:12], r.Count)
	}
	return im, nil
}

// sortByDoc orders ps by Doc with an LSD radix sort over its low passes
// bytes, overwriting ps. One read counts every digit; each digit's stable
// scatter then ping-pongs between ps and *scratch, which is grown and kept
// for the next list. The result lies in one of the two. Doc IDs are
// distinct, so this is the order any correct sort gives; they fit 32 bits
// because Validate bounds NumDocs by 2^32.
func sortByDoc(ps []workload.Posting, scratch *[]workload.Posting, passes int) []workload.Posting {
	var counts [4][256]uint32
	for _, p := range ps {
		counts[0][uint8(p.Doc)]++
		counts[1][uint8(p.Doc>>8)]++
		counts[2][uint8(p.Doc>>16)]++
		counts[3][uint8(p.Doc>>24)]++
	}
	*scratch = slices.Grow((*scratch)[:0], len(ps))[:len(ps)]
	src, dst := ps, *scratch
	for i := range passes {
		c, sum := &counts[i], uint32(0)
		for b, n := range c {
			c[b], sum = sum, sum+n
		}
		for _, p := range src {
			b := uint8(p.Doc >> (8 * i))
			dst[c[b]] = p
			c[b]++
		}
		src, dst = dst, src
	}
	return src
}

// baseAdopter is implemented by devices that can serve an immutable byte
// slice as their initial content without copying it: reads fall through to
// the slice, later writes go to a private overlay, and writing a range of
// the slice onto its own offset is charged but moves no bytes.
type baseAdopter interface {
	AdoptBase(image []byte)
}

// Stamp writes the image onto dev and returns it as an Index over dev,
// charging the bulk-load write sequence: the header and directories first,
// the list region in flush-sized sequential chunks, then each doc-sorted
// payload in one write. A baseAdopter shares the image's bytes instead of
// copying them; the write sequence, and so every simulated charge and
// counter, is the same either way.
func (im *Image) Stamp(dev storage.Device) (*Index, error) {
	if im.Bytes() > dev.Size() {
		return nil, fmt.Errorf("index: needs %d bytes, device %q holds %d",
			im.Bytes(), dev.Name(), dev.Size())
	}
	if a, ok := dev.(baseAdopter); ok {
		a.AdoptBase(im.data)
	}
	if _, err := dev.WriteAt(im.data[:im.headLen], 0); err != nil {
		return nil, fmt.Errorf("index: writing directory: %w", err)
	}
	for off := im.headLen; off < im.listsEnd; {
		n := int64(buildFlushSize)
		if im.listsEnd-off < n {
			n = im.listsEnd - off
		}
		if _, err := dev.WriteAt(im.data[off:off+n], off); err != nil {
			return nil, fmt.Errorf("index: writing lists: %w", err)
		}
		off += n
	}
	for t := range im.docTerms {
		if im.docTerms[t].Size == 0 {
			continue
		}
		off := im.docTerms[t].Offset
		end := off + im.docTerms[t].Size
		if _, err := dev.WriteAt(im.data[off:end], off); err != nil {
			return nil, fmt.Errorf("index: writing doc-sorted payload: %w", err)
		}
	}
	return &Index{Image: im, dev: dev}, nil
}
