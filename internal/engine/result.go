package engine

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Result serialization. A serialized result entry is what the caches store: a
// 16-byte header, then one 8-byte (doc, score) record per ranked document, side
// by side, then zero padding. The size is DocResultBytes per document, to model
// the URL/snippet/date payload real result entries carry: with the paper's
// K = 50 and ~400 B per document an entry is ~20 KB, of which the first 416
// bytes hold data. Records kept together leave the entry's other flash pages
// all zero, and the flash model stores such a page as a bit, not as bytes.

// resultHeaderSize is queryID (8) + doc count (4) + docBytes (4).
const resultHeaderSize = 16

// resultRecordSize is one document's (doc, score) record.
const resultRecordSize = 8

// EncodedResultBytes returns the serialized entry size for k docs.
func EncodedResultBytes(k, docBytes int) int {
	return resultHeaderSize + k*docBytes
}

// WrittenResultBytes returns how many leading bytes of an entry of k docs
// EncodeTo writes: the header and the records. The rest is padding.
func WrittenResultBytes(k int) int {
	return resultHeaderSize + k*resultRecordSize
}

// Encode serializes r with each document padded to docBytes.
func (r *Result) Encode(docBytes int) []byte {
	return r.EncodeTo(make([]byte, EncodedResultBytes(len(r.Docs), docBytes)), docBytes)
}

// EncodeTo is Encode into the front of dst, which must be at least
// EncodedResultBytes(len(r.Docs), docBytes) long and zero from
// WrittenResultBytes(len(r.Docs)) on, and returns dst whole: a caller that
// stores fixed-size entries encodes straight into one entry-sized buffer, the
// bytes past the records being the entry's padding.
func (r *Result) EncodeTo(dst []byte, docBytes int) []byte {
	if need := EncodedResultBytes(len(r.Docs), docBytes); docBytes < resultRecordSize || len(dst) < need {
		panic(fmt.Sprintf("engine: %d docs of %d bytes (8-byte record) do not fit %d bytes", len(r.Docs), docBytes, len(dst)))
	}
	binary.LittleEndian.PutUint64(dst[0:8], r.QueryID)
	binary.LittleEndian.PutUint32(dst[8:12], uint32(len(r.Docs)))
	binary.LittleEndian.PutUint32(dst[12:16], uint32(docBytes))
	rec := dst[resultHeaderSize:]
	for i, d := range r.Docs {
		binary.LittleEndian.PutUint32(rec[i*resultRecordSize:], d.Doc)
		binary.LittleEndian.PutUint32(rec[i*resultRecordSize+4:], math.Float32bits(d.Score))
	}
	return dst
}

// DecodeResult deserializes an entry produced by Encode.
func DecodeResult(buf []byte) (*Result, error) {
	if len(buf) < resultHeaderSize {
		return nil, fmt.Errorf("engine: result entry truncated at %d bytes", len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf[8:12]))
	docBytes := int(binary.LittleEndian.Uint32(buf[12:16]))
	// Bound n BEFORE any multiplication: a corrupt header must not be able
	// to overflow the size computation or force a huge allocation. The
	// whole padded entry must be there, not just its records.
	if docBytes < resultRecordSize || n < 0 || n > (len(buf)-resultHeaderSize)/docBytes {
		return nil, fmt.Errorf("engine: corrupt result entry (n=%d docBytes=%d len=%d)",
			n, docBytes, len(buf))
	}
	r := &Result{
		QueryID: binary.LittleEndian.Uint64(buf[0:8]),
		Docs:    make([]ScoredDoc, n),
	}
	rec := buf[resultHeaderSize:]
	for i := range r.Docs {
		r.Docs[i] = ScoredDoc{
			Doc:   binary.LittleEndian.Uint32(rec[i*resultRecordSize:]),
			Score: math.Float32frombits(binary.LittleEndian.Uint32(rec[i*resultRecordSize+4:])),
		}
	}
	return r, nil
}
