package index

// Doc-sorted posting sections.
//
// The impact-ordered lists serve the paper's disjunctive (filtered vector
// model) processing. Conjunctive (AND) processing — the workload behind
// the paper's "skipped reads" observation (§III) and its three-level-
// caching future work (§VIII, [19]) — needs postings sorted by document
// with skip pointers, like Lucene's skip lists. BuildImage writes both
// representations: each term's doc-sorted payload follows all
// impact-ordered lists, block-encoded under the same codec, and its skip
// entries (BlockRef.MaxDoc per block) live in the in-memory block
// directory, so a reader can jump into the middle of a list without
// scanning it and without spending device reads on skip tables.

import (
	"fmt"

	"hybridstore/internal/storage"
	"hybridstore/internal/workload"
)

// ReadDocRange reads n bytes of term t's encoded doc-sorted payload
// starting at byte offset off within the payload, directly from the
// device.
func (ix *Index) ReadDocRange(t workload.TermID, off int64, p []byte) error {
	m := ix.docTerms[t]
	if off < 0 || off+int64(len(p)) > m.Size {
		return fmt.Errorf("index: term %d doc range [%d,+%d) outside payload of %d bytes: %w",
			t, off, len(p), m.Size, storage.ErrOutOfRange)
	}
	_, err := ix.dev.ReadAt(p, m.Offset+off)
	return err
}
