// Package index implements the on-disk inverted index the search engine
// retrieves from: impact-ordered (frequency-sorted) posting lists laid out
// contiguously on a simulated block device, with an in-memory term
// directory, mirroring the index organization the paper assumes from
// Lucene with filtered-vector-model list ordering (§VI).
//
// The index is the paper's *backing store*: an Image (image.go) holds the
// serialized index and its term directory in memory, Stamp writes it onto a
// device, and the resulting Index answers directory lookups from the image
// and reads list bytes from the device. The two-level cache sits in front
// of an Index, and every byte a query needs that is not cached is read
// from here at device cost.
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

// Index is an Image stamped onto a device. The term directory (NumTerms,
// ListBytes, TermDF, ListBlocks, DocBytes, DocBlocks) is the image's, held
// once in memory and read at no device cost; ReadListRange and
// ReadDocRange read payload bytes from the device at device cost.
type Index struct {
	*Image
	dev storage.Device
}

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

// blockCount returns the number of blocks a df-posting list occupies.
func blockCount(df int64) int64 { return (df + BlockLen - 1) / BlockLen }

// ReadListRange reads n bytes of term t's encoded list starting at byte
// offset off within the list, directly from the device. It is the uncached
// list-read path; the cache hierarchy wraps it.
func (ix *Index) ReadListRange(t workload.TermID, off int64, p []byte) error {
	m := ix.terms[t]
	if off < 0 || off+int64(len(p)) > m.Size {
		return fmt.Errorf("index: term %d range [%d,+%d) outside list of %d bytes: %w",
			t, off, len(p), m.Size, storage.ErrOutOfRange)
	}
	_, err := ix.dev.ReadAt(p, m.Offset+off)
	return err
}
