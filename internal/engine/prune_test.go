package engine

import (
	"slices"
	"strings"
	"testing"

	"hybridstore/internal/index"
	"hybridstore/internal/workload"
)

// TestExecuteRejectsRepeatOfDroppedDoc: a single-term scan drops every
// posting past the K-th (its list is the last one and the heap is full), so
// a corrupt list repeating one of those docs would rank differently from the
// map reference, which sums the two postings. The query must fail instead,
// naming term and doc, and the engine must answer the next query.
func TestExecuteRejectsRepeatOfDroppedDoc(t *testing.T) {
	for _, codec := range bothCodecs {
		dup := descendingList(300, 0, 2)
		dup[129].Doc = dup[128].Doc
		src := newStubSource(codec, 1000, descendingList(90, 1, 10), dup)
		eng := New(src, DefaultConfig())

		res, _, err := eng.Execute(workload.Query{ID: 1, Terms: []workload.TermID{1}})
		if err == nil {
			t.Fatalf("%v: repeat of dropped doc %d accepted: %v", codec, dup[128].Doc, res.Docs)
		}
		for _, want := range []string{"term 1", "doc 256"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%v: error %q does not name %q", codec, err, want)
			}
		}
		ref := newRefEngine(src, DefaultConfig())
		requireSameAsReference(t, eng, ref, workload.Query{ID: 2, Terms: []workload.TermID{0}})
		// Scanned twice, the same list is met whole before its last scan, so
		// the repeat is a member and sums as the map did.
		requireSameAsReference(t, eng, ref, workload.Query{ID: 3, Terms: []workload.TermID{1, 1}})
	}
}

// TestExecuteCollectionNotMultipleOf64 walks the edge of the seen set: the
// last document of a collection that ends mid-word scores, and every ID from
// NumDocs to the end of that word — present in seen, absent from slot — is
// outside the collection exactly as an ID past the last word is.
func TestExecuteCollectionNotMultipleOf64(t *testing.T) {
	const numDocs = 1000 // 15 words and 40 bits
	for _, codec := range bothCodecs {
		edge := descendingList(200, 0, 3)
		edge[0].Doc = numDocs - 1
		src := newStubSource(codec, numDocs, edge)
		eng := New(src, DefaultConfig())
		res, _, err := eng.Execute(workload.Query{ID: 1, Terms: []workload.TermID{0}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Docs[0].Doc != numDocs-1 {
			t.Fatalf("%v: top doc %d, want the collection's last, %d", codec, res.Docs[0].Doc, numDocs-1)
		}

		for doc := uint32(numDocs); doc <= 1024; doc++ {
			// Position 150 is dropped, position 3 is offered: both paths.
			for _, pos := range []int{3, 150} {
				bad := descendingList(200, 0, 3)
				bad[pos].Doc = doc
				src.lists[0], src.blocks[0] = index.EncodeList(nil, nil, codec, bad)
				_, _, err := eng.Execute(workload.Query{ID: 2, Terms: []workload.TermID{0}})
				if err == nil {
					t.Fatalf("%v: doc %d at %d accepted in a collection of %d", codec, doc, pos, numDocs)
				}
				if want := "outside the collection (NumDocs 1000)"; !strings.Contains(err.Error(), want) {
					t.Fatalf("%v: doc %d at %d: error %q lacks %q", codec, doc, pos, err, want)
				}
			}
		}
	}
}

// TestExecuteEmptyCollection: NumDocs = 0 sizes both arrays to nothing; any
// posting is then outside the collection, found without indexing either.
func TestExecuteEmptyCollection(t *testing.T) {
	eng := New(newStubSource(bothCodecs[0], 0, descendingList(3, 0, 1)), DefaultConfig())
	if _, _, err := eng.Execute(workload.Query{Terms: []workload.TermID{0}}); err == nil ||
		!strings.Contains(err.Error(), "NumDocs 0") {
		t.Fatalf("posting accepted in an empty collection: %v", err)
	}
	if res, _, err := eng.Execute(workload.Query{}); err != nil || len(res.Docs) != 0 {
		t.Fatalf("empty query over an empty collection: %v, %v", res, err)
	}
	if eng.acc.seen != nil || eng.acc.slot != nil {
		t.Fatalf("allocated %d seen words and %d slots for no documents", len(eng.acc.seen), len(eng.acc.slot))
	}
}

// TestLastListInsertsOnlyWhatItOffers pins the mechanism, not the answer: a
// posting of the last list that meets a new document and cannot beat the
// K-th score must leave no accumulator entry. After {A, B} the accumulator
// may hold A's documents plus B's new documents that beat the K-th score A
// alone established (the K-th score only grows, so that is an upper bound on
// what B offered) — far fewer than the |A ∪ B| the engine used to insert.
func TestLastListInsertsOnlyWhatItOffers(t *testing.T) {
	const numDocs, k = 5000, 50
	a := descendingList(160, 1, 10) // odd docs
	for i := range a {
		a[i].TF += 45 // so that only the head of b can beat a's K-th score
	}
	b := descendingList(1200, 0, 4) // even docs: disjoint from a
	b[700].Doc, b[900].Doc = a[0].Doc, a[159].Doc
	src := newStubSource(bothCodecs[0], numDocs, a, b)
	eng := New(src, Config{TopK: k, TerminationFrac: 1e-12}) // both lists read to the end
	q := workload.Query{ID: 1, Terms: []workload.TermID{0, 1}}
	requireSameAsReference(t, eng, newRefEngine(src, eng.Config()), q)

	wa, wb := idf(numDocs, int64(len(a))), idf(numDocs, int64(len(b)))
	scoresA := make([]float64, len(a))
	for i, p := range a {
		scoresA[i] = float64(p.TF) * wa
	}
	slices.Sort(scoresA)
	kthAfterA := scoresA[len(a)-k]
	bound := len(a)
	for _, p := range b {
		if p.Doc%2 == 0 && float64(p.TF)*wb > kthAfterA {
			bound++
		}
	}
	if bound > len(a)+len(b)/4 {
		t.Fatalf("lists do not exercise the drop: bound %d of %d documents", bound, len(a)+len(b)-2)
	}
	if got := len(eng.acc.docs); got < len(a) || got > bound {
		t.Fatalf("accumulator holds %d documents after the query, want between %d (the first list) and %d (plus what the last list could offer)",
			got, len(a), bound)
	}
}
