package index

// Prebuilt index images.
//
// Synthesizing a collection's postings and encoding both payload regions is
// pure CPU work that depends only on the (CollectionSpec, CodecID) pair,
// yet every experiment point used to redo it from scratch. An Image is that
// work done once: the fully serialized index (header, term directory,
// block directory, impact-ordered payloads, doc-sorted payloads) held in
// memory, ready to be stamped onto any number of devices. Stamping replays
// the exact write sequence Build has always issued — header and
// directories first, lists in flush-sized sequential chunks, then one
// write per doc-sorted payload — so a stamped system is indistinguishable,
// byte for byte and simulated-op for simulated-op, from one that built its
// index directly.
//
// An Image is immutable after BuildImage returns and safe for concurrent
// Stamp calls from multiple goroutines. A device that can read through
// shared bytes (baseAdopter: the simulated HDD) is handed the image itself
// rather than a copy, so N stamped systems hold the index once.

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"hybridstore/internal/storage"
	"hybridstore/internal/workload"
)

// buildFlushSize is the sequential-write granularity of the list region
// during bulk load (Build's historical flush size).
const buildFlushSize = 1 << 20

// Image is a fully serialized index for one (CollectionSpec, CodecID)
// pair, reusable across devices.
type Image struct {
	spec       workload.CollectionSpec
	codec      CodecID
	data       []byte // header + directories + payloads
	headLen    int64  // end of header + term dir + block dir
	listsEnd   int64  // end of the impact-ordered payload region
	numDocs    int64
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
	terms := make([]TermMeta, v)
	docTerms := make([]TermMeta, v)
	listBlocks := make([][]BlockRef, v)
	docBlocks := make([][]BlockRef, v)

	// Encode both payload regions; offsets are rebased once the directory
	// sizes are known.
	var listBuf, docBuf []byte
	var sorted []workload.Posting
	var totalRefs int64
	for t := 0; t < v; t++ {
		ps := spec.Postings(workload.TermID(t))
		lOff := int64(len(listBuf))
		listBuf, listBlocks[t] = EncodeList(listBuf, nil, codec, ps)
		terms[t] = TermMeta{Offset: lOff, DF: int64(len(ps)), Size: int64(len(listBuf)) - lOff}

		sorted = append(sorted[:0], ps...)
		slices.SortFunc(sorted, func(a, b workload.Posting) int { return cmp.Compare(a.Doc, b.Doc) })
		dOff := int64(len(docBuf))
		docBuf, docBlocks[t] = EncodeList(docBuf, nil, codec, sorted)
		docTerms[t] = TermMeta{Offset: dOff, DF: terms[t].DF, Size: int64(len(docBuf)) - dOff}
		totalRefs += int64(len(listBlocks[t]) + len(docBlocks[t]))
	}

	headLen := int64(headerSize+dirEntrySize*v) + totalRefs*blockRefSize
	listsEnd := headLen + int64(len(listBuf))
	for t := 0; t < v; t++ {
		terms[t].Offset += headLen
		docTerms[t].Offset += listsEnd
	}

	data := make([]byte, 0, listsEnd+int64(len(docBuf)))
	data = data[:headerSize+dirEntrySize*v]
	copy(data[0:4], magic[:])
	binary.LittleEndian.PutUint32(data[4:8], indexVersion)
	binary.LittleEndian.PutUint64(data[8:16], uint64(v))
	binary.LittleEndian.PutUint64(data[16:24], uint64(spec.NumDocs))
	binary.LittleEndian.PutUint32(data[24:28], uint32(codec))
	for t := 0; t < v; t++ {
		base := headerSize + t*dirEntrySize
		binary.LittleEndian.PutUint64(data[base:base+8], uint64(terms[t].Offset))
		binary.LittleEndian.PutUint64(data[base+8:base+16], uint64(terms[t].DF))
		binary.LittleEndian.PutUint64(data[base+16:base+24], uint64(terms[t].Size))
		binary.LittleEndian.PutUint64(data[base+24:base+32], uint64(docTerms[t].Offset))
		binary.LittleEndian.PutUint64(data[base+32:base+40], uint64(docTerms[t].Size))
	}
	var refB [blockRefSize]byte
	appendRefs := func(refs []BlockRef) {
		for _, r := range refs {
			binary.LittleEndian.PutUint32(refB[0:4], r.MaxDoc)
			binary.LittleEndian.PutUint32(refB[4:8], r.Off)
			binary.LittleEndian.PutUint32(refB[8:12], r.Count)
			data = append(data, refB[:]...)
		}
	}
	for t := 0; t < v; t++ {
		appendRefs(listBlocks[t])
		appendRefs(docBlocks[t])
	}
	data = append(data, listBuf...)
	data = append(data, docBuf...)

	return &Image{
		spec:       spec,
		codec:      codec,
		data:       data,
		headLen:    headLen,
		listsEnd:   listsEnd,
		numDocs:    int64(spec.NumDocs),
		terms:      terms,
		docTerms:   docTerms,
		listBlocks: listBlocks,
		docBlocks:  docBlocks,
	}, nil
}

// baseAdopter is implemented by devices that can serve an immutable byte
// slice as their initial content without copying it: reads fall through to
// the slice, later writes go to a private overlay, and writing a range of
// the slice onto its own offset is charged but moves no bytes.
type baseAdopter interface {
	AdoptBase(image []byte)
}

// Stamp writes the image onto dev and returns the opened index, charging
// the same simulated write operations a direct Build would: the header and
// directories first, the list region in flush-sized sequential chunks,
// then each doc-sorted payload in one write. A baseAdopter shares the
// image's bytes instead of copying them; the write sequence, and so every
// simulated charge and counter, is the same either way.
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
	return &Index{
		dev: dev, codec: im.codec, numDocs: im.numDocs, size: im.Bytes(),
		terms: im.terms, docTerms: im.docTerms,
		listBlocks: im.listBlocks, docBlocks: im.docBlocks,
	}, nil
}
