// Package index implements the on-disk inverted index the search engine
// retrieves from: impact-ordered (frequency-sorted) posting lists laid out
// contiguously on a simulated block device, with an in-memory term
// directory, mirroring the index organization the paper assumes from
// Lucene with filtered-vector-model list ordering (§VI).
//
// The index is the paper's *backing store*: the two-level cache sits in
// front of a Reader, and every byte a query needs that is not cached is
// read from here at device cost.
//
// On-device layout (version 3):
//
//	header     magic, version, numTerms, numDocs, codec
//	directory  numTerms × {impactOff, df, impactBytes, docOff, docBytes}
//	block dir  per term: impact BlockRefs then doc-sorted BlockRefs
//	payloads   impact-ordered lists back-to-back, then doc-sorted lists
//
// Payloads are block-encoded under the index's CodecID (codec.go); all
// sizes and offsets are encoded bytes, so every cache tier and stat in
// front of the index accounts compressed bytes exactly.
package index

import (
	"encoding/binary"
	"fmt"

	"hybridstore/internal/storage"
	"hybridstore/internal/workload"
)

// PostingSize is the serialized size of one raw-codec posting: doc uint32,
// tf uint16. (Earlier versions carried 2 bytes of alignment padding;
// version 3 dropped them so the uncompressed baseline stops charging dead
// bytes to every tier.)
const PostingSize = 6

// headerSize is the serialized index header: magic, version, numTerms,
// numDocs, codec.
const headerSize = 4 + 4 + 8 + 8 + 4

// indexVersion is the on-device layout version.
const indexVersion = 3

// dirEntrySize is one serialized directory entry: impact offset, df,
// impact bytes, doc-sorted offset, doc-sorted bytes (all uint64).
const dirEntrySize = 40

// blockRefSize is one serialized BlockRef: maxDoc, off, count (uint32s).
const blockRefSize = 12

// magic identifies a serialized index.
var magic = [4]byte{'H', 'S', 'I', 'X'}

// TermMeta locates one term's encoded posting list on the device.
type TermMeta struct {
	// Offset is the byte position of the list payload on the device.
	Offset int64
	// DF is the number of postings (document frequency).
	DF int64
	// Size is the encoded payload length in bytes.
	Size int64
}

// Bytes returns the encoded list length.
func (m TermMeta) Bytes() int64 { return m.Size }

// Index is an immutable inverted index bound to a device.
type Index struct {
	dev     storage.Device
	codec   CodecID
	numDocs int64
	size    int64      // total serialized bytes on the device
	terms   []TermMeta // impact-ordered payloads, indexed by TermID
	// docTerms mirrors terms for the doc-sorted payloads.
	docTerms   []TermMeta
	listBlocks [][]BlockRef // impact block directory, indexed by TermID
	docBlocks  [][]BlockRef // doc-sorted block directory, indexed by TermID
}

// NumTerms returns the vocabulary size.
func (ix *Index) NumTerms() int { return len(ix.terms) }

// NumDocs returns the collection size the index was built over.
func (ix *Index) NumDocs() int64 { return ix.numDocs }

// Codec returns the block encoding the index was built with.
func (ix *Index) Codec() CodecID { return ix.codec }

// SizeBytes returns the total serialized index size on the device.
func (ix *Index) SizeBytes() int64 { return ix.size }

// Meta returns the directory entry for term t.
func (ix *Index) Meta(t workload.TermID) TermMeta {
	if int(t) < 0 || int(t) >= len(ix.terms) {
		panic(fmt.Sprintf("index: term %d out of range [0,%d)", t, len(ix.terms)))
	}
	return ix.terms[t]
}

// ListBytes returns the encoded size of term t's impact-ordered list.
func (ix *Index) ListBytes(t workload.TermID) int64 { return ix.Meta(t).Bytes() }

// TermDF returns term t's document frequency.
func (ix *Index) TermDF(t workload.TermID) int64 { return ix.Meta(t).DF }

// ListBlocks returns term t's impact-list block directory. The directory
// is in-memory metadata: reading it costs no device time. Callers must not
// mutate the returned slice.
func (ix *Index) ListBlocks(t workload.TermID) []BlockRef {
	ix.Meta(t) // range check
	return ix.listBlocks[t]
}

// Device returns the backing device (for trace instrumentation).
func (ix *Index) Device() storage.Device { return ix.dev }

// EncodePosting serializes p into buf (len >= PostingSize).
func EncodePosting(buf []byte, p workload.Posting) {
	binary.LittleEndian.PutUint32(buf[0:4], p.Doc)
	binary.LittleEndian.PutUint16(buf[4:6], p.TF)
}

// DecodePosting reads the posting EncodePosting wrote at the start of buf
// (len >= PostingSize): a raw list's postings, and the records
// BlockCursor.Decode returns under every codec.
func DecodePosting(buf []byte) workload.Posting {
	return workload.Posting{Doc: binary.LittleEndian.Uint32(buf[0:4]), TF: binary.LittleEndian.Uint16(buf[4:6])}
}

// Build synthesizes the collection described by spec and serializes its
// inverted index onto dev under the raw codec, returning the opened index.
// Lists are laid out back-to-back after the header and directories, in
// term order, so building is one long sequential write — the cheap
// bulk-load case on both device types. Build is BuildImage + Stamp;
// callers constructing many systems over the same spec (or wanting a
// compressed codec) should build the Image once and Stamp it repeatedly.
//
// Building charges device time on the shared clock like any other I/O; use
// a dedicated clock when setup time should not pollute an experiment.
func Build(dev storage.Device, spec workload.CollectionSpec) (*Index, error) {
	img, err := BuildImage(spec, CodecRaw)
	if err != nil {
		return nil, err
	}
	return img.Stamp(dev)
}

// Open loads an index previously built on dev by reading its header, term
// directory, and block directory.
func Open(dev storage.Device) (*Index, error) {
	head := make([]byte, headerSize)
	if _, err := dev.ReadAt(head, 0); err != nil {
		return nil, fmt.Errorf("index: reading header: %w", err)
	}
	if [4]byte(head[0:4]) != magic {
		return nil, fmt.Errorf("index: bad magic %q on %q", head[0:4], dev.Name())
	}
	if v := binary.LittleEndian.Uint32(head[4:8]); v != indexVersion {
		return nil, fmt.Errorf("index: unsupported version %d", v)
	}
	numTerms := int(binary.LittleEndian.Uint64(head[8:16]))
	numDocs := int64(binary.LittleEndian.Uint64(head[16:24]))
	codec := CodecID(binary.LittleEndian.Uint32(head[24:28]))
	if !codec.Valid() {
		return nil, fmt.Errorf("index: unknown codec %d in header", codec)
	}
	dir := make([]byte, dirEntrySize*numTerms)
	if _, err := dev.ReadAt(dir, headerSize); err != nil {
		return nil, fmt.Errorf("index: reading directory: %w", err)
	}
	terms := make([]TermMeta, numTerms)
	docTerms := make([]TermMeta, numTerms)
	var totalRefs int64
	for t := range terms {
		base := t * dirEntrySize
		terms[t] = TermMeta{
			Offset: int64(binary.LittleEndian.Uint64(dir[base : base+8])),
			DF:     int64(binary.LittleEndian.Uint64(dir[base+8 : base+16])),
			Size:   int64(binary.LittleEndian.Uint64(dir[base+16 : base+24])),
		}
		docTerms[t] = TermMeta{
			Offset: int64(binary.LittleEndian.Uint64(dir[base+24 : base+32])),
			DF:     terms[t].DF,
			Size:   int64(binary.LittleEndian.Uint64(dir[base+32 : base+40])),
		}
		totalRefs += 2 * blockCount(terms[t].DF)
	}
	refBuf := make([]byte, totalRefs*blockRefSize)
	if _, err := dev.ReadAt(refBuf, int64(headerSize+dirEntrySize*numTerms)); err != nil {
		return nil, fmt.Errorf("index: reading block directory: %w", err)
	}
	listBlocks := make([][]BlockRef, numTerms)
	docBlocks := make([][]BlockRef, numTerms)
	pos := 0
	//hybridlint:allow bufalias readRefs decodes refBuf into freshly allocated BlockRef slices and is called only inside Open, so no alias to the buffer survives the call
	readRefs := func(n int64) []BlockRef {
		out := make([]BlockRef, n)
		for i := range out {
			out[i] = BlockRef{
				MaxDoc: binary.LittleEndian.Uint32(refBuf[pos:]),
				Off:    binary.LittleEndian.Uint32(refBuf[pos+4:]),
				Count:  binary.LittleEndian.Uint32(refBuf[pos+8:]),
			}
			pos += blockRefSize
		}
		return out
	}
	for t := range terms {
		n := blockCount(terms[t].DF)
		listBlocks[t] = readRefs(n)
		docBlocks[t] = readRefs(n)
	}
	size := int64(headerSize + dirEntrySize*numTerms)
	size += totalRefs * blockRefSize
	for t := range terms {
		size += terms[t].Size + docTerms[t].Size
	}
	return &Index{
		dev: dev, codec: codec, numDocs: numDocs, size: size,
		terms: terms, docTerms: docTerms,
		listBlocks: listBlocks, docBlocks: docBlocks,
	}, nil
}

// blockCount returns the number of blocks a df-posting list occupies.
func blockCount(df int64) int64 { return (df + BlockLen - 1) / BlockLen }

// RequiredBytes returns the device capacity needed to hold spec's index
// under the raw codec (header, directories, impact and doc-sorted
// payloads). Compressed images are strictly smaller on real workloads;
// callers sizing a device for an arbitrary codec should use Image.Bytes.
func RequiredBytes(spec workload.CollectionSpec) int64 {
	total := int64(headerSize + dirEntrySize*spec.VocabSize)
	for t := 0; t < spec.VocabSize; t++ {
		df := int64(spec.DocFreq(workload.TermID(t)))
		total += 2 * (blockCount(df)*blockRefSize + df*PostingSize)
	}
	return total
}

// ReadListRange reads n bytes of term t's encoded list starting at byte
// offset off within the list, directly from the device. It is the uncached
// list-read path; the cache hierarchy wraps it.
func (ix *Index) ReadListRange(t workload.TermID, off int64, p []byte) error {
	m := ix.Meta(t)
	if off < 0 || off+int64(len(p)) > m.Bytes() {
		return fmt.Errorf("index: term %d range [%d,+%d) outside list of %d bytes: %w",
			t, off, len(p), m.Bytes(), storage.ErrOutOfRange)
	}
	_, err := ix.dev.ReadAt(p, m.Offset+off)
	return err
}
