package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"hybridstore/internal/index"
	"hybridstore/internal/intersect"
	"hybridstore/internal/simclock"
	"hybridstore/internal/storage"
	"hybridstore/internal/workload"
)

// codecIndex stamps the engine test collection under the given codec.
func codecIndex(t testing.TB, spec workload.CollectionSpec, codec index.CodecID) *index.Index {
	t.Helper()
	img, err := index.BuildImage(spec, codec)
	if err != nil {
		t.Fatal(err)
	}
	dev := storage.NewMemDevice("idx", img.Bytes(), simclock.New(), storage.DefaultMemParams())
	ix, err := img.Stamp(dev)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestBlockCursorIntersectionMatchesReference is the property test for the
// skip-seeking conjunctive path: across random collections, random term
// pairs, and both codecs, the docCursor-based pair intersection must agree
// exactly with the reference merge over fully decoded lists.
func TestBlockCursorIntersectionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 6; trial++ {
		spec := workload.DefaultCollection(5000 + 7000*trial)
		spec.VocabSize = 40 + 30*trial
		spec.Seed = uint64(100 + trial)
		for _, codec := range []index.CodecID{index.CodecRaw, index.CodecGVarint} {
			ix := codecIndex(t, spec, codec)
			for probe := 0; probe < 8; probe++ {
				a := workload.TermID(rng.Intn(spec.VocabSize))
				b := workload.TermID(rng.Intn(spec.VocabSize))
				if a == b {
					continue
				}
				// Reference: merge-intersect the spec's own postings.
				sortByDoc := func(tid workload.TermID) []workload.Posting {
					ps := spec.Postings(tid)
					sort.Slice(ps, func(i, j int) bool { return ps[i].Doc < ps[j].Doc })
					return ps
				}
				pair := intersect.MakePair(a, b)
				want := intersect.Intersect(sortByDoc(pair.A), sortByDoc(pair.B))

				var stats ConjStats
				e := NewConjunctive(ix, DefaultConfig(), nil)
				got, _, err := e.pairIntersection(pair, &stats)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d codec %v pair %v: %d results, want %d",
						trial, codec, pair, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d codec %v pair %v entry %d: %+v != %+v",
							trial, codec, pair, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestConjunctiveFindMatchesMembership drives the forward-only probe
// cursor over every doc of the collection and checks membership answers
// against the raw postings, under both codecs.
func TestConjunctiveFindMatchesMembership(t *testing.T) {
	spec := workload.DefaultCollection(20000)
	spec.VocabSize = 50
	for _, codec := range []index.CodecID{index.CodecRaw, index.CodecGVarint} {
		ix := codecIndex(t, spec, codec)
		term := workload.TermID(1)
		want := make(map[uint32]uint16)
		for _, p := range spec.Postings(term) {
			want[p.Doc] = p.TF
		}
		var stats ConjStats
		cur := newDocCursor(ix, term, &stats)
		step := 1 + spec.NumDocs/4096 // ascending sample of the doc space
		for doc := 0; doc < spec.NumDocs; doc += step {
			tf, ok, err := cur.find(uint32(doc))
			if err != nil {
				t.Fatal(err)
			}
			wantTF, wantOK := want[uint32(doc)]
			if ok != wantOK || (ok && tf != wantTF) {
				t.Fatalf("codec %v doc %d: (%d,%v) want (%d,%v)", codec, doc, tf, ok, wantTF, wantOK)
			}
		}
	}
}

// TestExecuteIdenticalAcrossCodecs is the tentpole invariant at the engine
// level: disjunctive results — docs, scores, and posting counts — must be
// byte-identical between raw and gvarint indexes, with only the byte
// accounting differing.
func TestExecuteIdenticalAcrossCodecs(t *testing.T) {
	spec := workload.DefaultCollection(20000)
	spec.VocabSize = 200
	raw := New(codecIndex(t, spec, index.CodecRaw), DefaultConfig())
	gv := New(codecIndex(t, spec, index.CodecGVarint), DefaultConfig())
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 50; i++ {
		q := workload.Query{ID: uint64(i), Terms: []workload.TermID{
			workload.TermID(rng.Intn(spec.VocabSize)),
			workload.TermID(rng.Intn(spec.VocabSize)),
			workload.TermID(rng.Intn(spec.VocabSize)),
		}}
		r1, s1, err := raw.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		r2, s2, err := gv.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%v", r1.Docs) != fmt.Sprintf("%v", r2.Docs) {
			t.Fatalf("query %d: results diverge across codecs:\nraw: %v\ngv:  %v", i, r1.Docs, r2.Docs)
		}
		if s1.PostingsScored != s2.PostingsScored {
			t.Fatalf("query %d: postings scored %d vs %d", i, s1.PostingsScored, s2.PostingsScored)
		}
		if s1.BytesRead <= s2.BytesRead {
			t.Fatalf("query %d: gvarint read %d bytes, raw %d — no byte savings", i, s2.BytesRead, s1.BytesRead)
		}
	}
}
