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
// NumDocs to the end of that word — present in seen, never a member — is
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

// TestExecuteFullWordChainMatchesReference fills one seen word: all 64 docs
// of word 1 become members in insertion order 64…127, so the word's chain is
// as long as a chain can be, and the last list then meets them in reverse
// insertion order, each lookup walking one entry further down the chain.
func TestExecuteFullWordChainMatchesReference(t *testing.T) {
	first := descendingList(64, 64, 1)
	reverse := descendingList(64, 0, 1)
	for i := range reverse {
		reverse[i].Doc = 127 - uint32(i)
	}
	for _, codec := range bothCodecs {
		src := newStubSource(codec, 1000, first, reverse)
		for _, cfg := range []Config{DefaultConfig(), {TopK: 100}} { // heap full / never full
			eng := New(src, cfg)
			ref := newRefEngine(src, eng.Config())
			requireSameAsReference(t, eng, ref, workload.Query{ID: 1, Terms: []workload.TermID{0, 1}})
			if got := len(eng.acc.mem); got != 64 {
				t.Fatalf("%v: %d members after the query, want the word's 64", codec, got)
			}
			requireSameAsReference(t, eng, ref, workload.Query{ID: 2, Terms: []workload.TermID{1, 0, 1}})
		}
	}
}

// TestExecuteStaleChainDoesNotResolveDroppedRepeat: query 1 leaves a chain
// in word 1 whose head is member 20, doc 123. Query 2, on the same engine,
// inserts no member in word 1, drops doc 123 in its last list and then meets
// it again. Its walk starts at that stale head, which must be refused —
// whether index 20 lies past query 2's members (where the column still holds
// query 1's entry for doc 123) or on a member of another word — so the query
// fails as a repeat of a dropped doc instead of summing query 1's score.
func TestExecuteStaleChainDoesNotResolveDroppedRepeat(t *testing.T) {
	const doc = 123
	for _, codec := range bothCodecs {
		for _, before := range []int{0, 70} { // query 2's members from a first list
			last := descendingList(300, 200, 2) // docs 200…798: words 3–12
			last[250].Doc, last[280].Doc = doc, doc
			src := newStubSource(codec, 1000,
				descendingList(21, 103, 1),     // docs 103…123: word 1
				descendingList(before, 801, 1), // docs 801…: words 12–13
				last)
			eng := New(src, Config{TopK: 10})
			ref := newRefEngine(src, eng.Config())
			requireSameAsReference(t, eng, ref, workload.Query{ID: 1, Terms: []workload.TermID{0, 0}})
			if m := eng.acc.mem; len(m) != 21 || m[20].doc != doc || eng.acc.head[1] != 20 {
				t.Fatalf("%v: query 1 left %d members, want 21 with doc %d at the head of word 1", codec, len(m), doc)
			}

			q := workload.Query{ID: 2, Terms: []workload.TermID{2}}
			if before > 0 {
				q.Terms = append(q.Terms, 1)
			}
			res, _, err := eng.Execute(q)
			if err == nil {
				t.Fatalf("%v, %d members first: repeat of dropped doc %d accepted: %v", codec, before, doc, res.Docs)
			}
			if want := "doc 123 repeated in the list after its first posting was dropped"; !strings.Contains(err.Error(), want) {
				t.Fatalf("%v, %d members first: error %q lacks %q", codec, before, err, want)
			}
			requireSameAsReference(t, eng, ref, workload.Query{ID: 3, Terms: []workload.TermID{0, 1}})
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
	if eng.acc.seen != nil || eng.acc.head != nil {
		t.Fatalf("allocated %d seen words and %d chain heads for no documents", len(eng.acc.seen), len(eng.acc.head))
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
	if got := len(eng.acc.mem); got < len(a) || got > bound {
		t.Fatalf("accumulator holds %d documents after the query, want between %d (the first list) and %d (plus what the last list could offer)",
			got, len(a), bound)
	}
}

// TestScoreBlockThresholdTransitions pins the moments kth changes under
// scoreBlock: the K-th score of a full heap, against which insertOrDrop
// takes a posting, and −1 while the heap has room, so that every posting
// then goes to scoreRare and is offered. Each case runs on both codecs
// against the map reference, with K small enough that a failure prints the
// whole ranking, and checks how many members the query left: that count
// says which postings were inserted, offered or dropped, which the ranking
// alone does not always show.
func TestScoreBlockThresholdTransitions(t *testing.T) {
	const numDocs = 1000 // a list of df postings weighs log2(1 + 1000/df)
	// desc returns n postings of docs first, first+1, … with TFs top,
	// top−1, …: strictly impact-ordered, so no two tie.
	desc := func(n int, first uint32, top uint16) []workload.Posting {
		ps := make([]workload.Posting, n)
		for i := range ps {
			ps[i] = workload.Posting{Doc: first + uint32(i), TF: top - uint16(i)}
		}
		return ps
	}
	for _, c := range []struct {
		name    string
		k       int
		lists   [][]workload.Posting // in the query's DF order
		members int
	}{
		{
			// The first list's 5 documents score 40·7.65 = 306, more than
			// any of the last list's (at most 50·5.67 = 283). The heap has
			// 3 free places when the last list's block starts: its first 3
			// postings must be offered and take them, and the rest then
			// fall at or below the K-th score and are dropped.
			name:    "heap partly full when a later list's block starts",
			k:       8,
			lists:   [][]workload.Posting{desc(5, 100, 40), desc(20, 200, 50)},
			members: 5 + 3,
		},
		{
			// The heap fills at the first list's 8th posting, inside its
			// one block, and the K-th score becomes 53·5.67 = 300: the 12
			// later postings are inserted and not offered. The last list
			// meets 8 of them again, whose totals (at least 41·5.67 +
			// 33·5.10 = 401) beat it, then 22 new documents (at most
			// 32·5.10 = 163) that it drops.
			name:    "heap fills mid-block",
			k:       8,
			lists:   [][]workload.Posting{desc(20, 100, 60), desc(30, 112, 40)},
			members: 20,
		},
		{
			// After the first list the K-th score is 50·8.97 = 448. The
			// last list's docs 200 and 201 (100·6.66 = 666) beat it out of
			// line, and the second offer raises it to 666. Docs 202…209
			// (90·6.66 = 599) lie between the old and the new K-th score:
			// at the new one they take the loop and are dropped.
			name: "kth rises mid-block through an out-of-line offer",
			k:    2,
			lists: [][]workload.Posting{
				{{Doc: 100, TF: 50}, {Doc: 101, TF: 50}},
				append([]workload.Posting{{Doc: 200, TF: 100}, {Doc: 201, TF: 100}}, desc(8, 202, 90)...),
			},
			members: 2 + 2,
		},
		{
			// After the first list the heap holds docs 101 and 102 at
			// 50·7.97 = 399, and docs 100 (10·7.97 = 80) and 103 are
			// members, all four on seen word 1's chain, 103 at its head. In
			// the last list doc 300 is new at 59·6.66 = 393 and is dropped;
			// doc 100's 58·6.66 = 386 is at or below the K-th score on its
			// own, but doc 100 is found one step down the chain, totals 466
			// and must be offered and enter the heap.
			name: "a member is met in the last list after the heap is full",
			k:    2,
			lists: [][]workload.Posting{
				{{Doc: 101, TF: 50}, {Doc: 102, TF: 50}, {Doc: 100, TF: 10}, {Doc: 103, TF: 9}},
				append([]workload.Posting{{Doc: 300, TF: 59}, {Doc: 100, TF: 58}}, desc(8, 400, 10)...),
			},
			members: 4,
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, codec := range bothCodecs {
				src := newStubSource(codec, numDocs, c.lists...)
				eng := New(src, Config{TopK: c.k, TerminationFrac: 1e-12}) // every list read to its end
				q := workload.Query{ID: 1}
				for i := range c.lists {
					q.Terms = append(q.Terms, workload.TermID(i))
				}
				requireSameAsReference(t, eng, newRefEngine(src, eng.Config()), q)
				if got := len(eng.acc.mem); got != c.members {
					t.Fatalf("%v: %d members after the query, want %d", codec, got, c.members)
				}
			}
		})
	}
}
