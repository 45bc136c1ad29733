package engine

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Result serialization. A serialized result entry is what the caches store:
// per ranked document an 8-byte (doc, score) record padded to DocResultBytes
// to model the URL/snippet/date payload real result entries carry. With the
// paper's K = 50 and ~400 B per document an entry is ~20 KB.

// resultHeaderSize is queryID (8) + doc count (4) + docBytes (4).
const resultHeaderSize = 16

// EncodedResultBytes returns the serialized entry size for k docs.
func EncodedResultBytes(k, docBytes int) int {
	return resultHeaderSize + k*docBytes
}

// Encode serializes r with each document padded to docBytes.
func (r *Result) Encode(docBytes int) []byte {
	return r.EncodeTo(make([]byte, EncodedResultBytes(len(r.Docs), docBytes)), docBytes)
}

// EncodeTo is Encode into the front of dst, which must be zeroed and at least
// EncodedResultBytes(len(r.Docs), docBytes) long, and returns dst whole: a
// caller that stores fixed-size entries encodes straight into one entry-sized
// buffer, the bytes past the encoding being the entry's padding.
func (r *Result) EncodeTo(dst []byte, docBytes int) []byte {
	if need := EncodedResultBytes(len(r.Docs), docBytes); docBytes < 8 || len(dst) < need {
		panic(fmt.Sprintf("engine: %d docs of %d bytes (8-byte record) do not fit %d bytes", len(r.Docs), docBytes, len(dst)))
	}
	binary.LittleEndian.PutUint64(dst[0:8], r.QueryID)
	binary.LittleEndian.PutUint32(dst[8:12], uint32(len(r.Docs)))
	binary.LittleEndian.PutUint32(dst[12:16], uint32(docBytes))
	for i, d := range r.Docs {
		base := resultHeaderSize + i*docBytes
		binary.LittleEndian.PutUint32(dst[base:base+4], d.Doc)
		binary.LittleEndian.PutUint32(dst[base+4:base+8], math.Float32bits(d.Score))
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
	// to overflow the size computation or force a huge allocation.
	if docBytes < 8 || n < 0 || n > (len(buf)-resultHeaderSize)/docBytes {
		return nil, fmt.Errorf("engine: corrupt result entry (n=%d docBytes=%d len=%d)",
			n, docBytes, len(buf))
	}
	r := &Result{
		QueryID: binary.LittleEndian.Uint64(buf[0:8]),
		Docs:    make([]ScoredDoc, n),
	}
	for i := 0; i < n; i++ {
		base := resultHeaderSize + i*docBytes
		r.Docs[i] = ScoredDoc{
			Doc:   binary.LittleEndian.Uint32(buf[base : base+4]),
			Score: math.Float32frombits(binary.LittleEndian.Uint32(buf[base+4 : base+8])),
		}
	}
	return r, nil
}
