package engine

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hybridstore/internal/workload"
)

// FuzzDecodeResult checks the result-entry decoder never panics and never
// over-reads on corrupt or truncated cache payloads — exactly what a
// decoder fed from a simulated (or real) flash device must tolerate.
func FuzzDecodeResult(f *testing.F) {
	good := (&Result{QueryID: 7, Docs: []ScoredDoc{{Doc: 1, Score: 2}, {Doc: 9, Score: 1}}}).Encode(64)
	f.Add(good)
	f.Add(good[:len(good)-10])
	f.Add([]byte{})
	f.Add(make([]byte, 16))
	// Regression: a header whose n×docBytes overflows must be rejected,
	// not allocated (found by fuzzing).
	f.Add([]byte("\xb6\xb6\xb6\xb6\xc5\x1ef\xdb\xcb\xd6\xcb\xcaY\xdbD\xb3"))
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeResult(data)
		if err != nil {
			return
		}
		// Accepted payloads must round-trip consistently.
		if res.Docs == nil && len(res.Docs) != 0 {
			t.Fatal("nil docs on success")
		}
		re := res.Encode(64)
		back, err := DecodeResult(re)
		if err != nil {
			t.Fatalf("re-encode of accepted payload rejected: %v", err)
		}
		if back.QueryID != res.QueryID || len(back.Docs) != len(res.Docs) {
			t.Fatal("re-encode round trip mismatch")
		}
	})
}

// FuzzExecuteEqualsReferenceOrErrors holds Execute to its contract on bytes
// no BuildImage list contains: what the map reference returns — results and
// ExecStats — or an error, never a different ranking. Lists start well formed
// (distinct in-range docs, descending TFs) and edits then repeat docs, break
// the TF order and move docs outside the collection; only an edit that makes
// a list malformed licenses an error. Each query runs three times on one
// engine so whatever a failed or finished query left behind is in play.
func FuzzExecuteEqualsReferenceOrErrors(f *testing.F) {
	f.Add(uint64(1), []byte{})
	f.Add(uint64(2), []byte{0, 129, 0, 0, 0, 1, 60, 0, 200, 1})            // a repeat and a TF out of order
	f.Add(uint64(3), []byte{0, 10, 0, 20, 2, 1, 90, 0, 63, 2})             // docs just past NumDocs
	f.Add(uint64(4), []byte{2, 0, 1, 7, 3, 0, 5, 0, 0, 1, 3, 44, 0, 9, 0}) // a doc near 2^32, a zero TF, a repeat
	f.Fuzz(func(t *testing.T, seed uint64, edits []byte) {
		const numDocs = 1700 // ends mid-word; generated docs stay below 1604
		rng := rand.New(rand.NewSource(int64(seed)))
		lists := make([][]workload.Posting, 1+rng.Intn(4))
		for i := range lists {
			lists[i] = descendingList(1+rng.Intn(400), uint32(rng.Intn(8)), uint32(1+rng.Intn(4)))
		}
		malformed := false
		for ; len(edits) >= 5; edits = edits[5:] {
			l := lists[int(edits[0])%len(lists)]
			pos, arg := (int(edits[1])|int(edits[2])<<8)%len(l), edits[3]
			switch edits[4] % 4 {
			case 0:
				l[pos].Doc, malformed = l[(pos+1+int(arg))%len(l)].Doc, true
			case 1:
				l[pos].TF = 3 * uint16(arg)
			case 2:
				l[pos].Doc, malformed = numDocs+uint32(arg), true
			case 3:
				l[pos].Doc, malformed = math.MaxUint32-uint32(arg), true
			}
		}
		cfg := Config{
			TopK:            []int{1, 10, 50}[rng.Intn(3)],
			ChunkBytes:      []int{1 << 10, 8 << 10}[rng.Intn(2)],
			TerminationFrac: []float64{0.15, 1e-12, 2}[rng.Intn(3)],
		}
		src := newStubSource(bothCodecs[rng.Intn(len(bothCodecs))], numDocs, lists...)
		eng, ref := New(src, cfg), newRefEngine(src, cfg)
		for i := 0; i < 3; i++ {
			q := workload.Query{ID: uint64(i), Terms: make([]workload.TermID, 1+rng.Intn(5))}
			for j := range q.Terms {
				q.Terms[j] = workload.TermID(rng.Intn(len(lists))) // repeats a term once there are more terms than lists
			}
			got, gotStats, err := eng.Execute(q)
			if err != nil {
				if !malformed {
					t.Fatalf("query %v over well-formed lists: %v", q.Terms, err)
				}
				continue
			}
			want, wantStats, err := ref.Execute(q)
			if err != nil {
				t.Fatalf("query %v: engine answered, reference failed: %v", q.Terms, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("query %v: results differ from the map reference\n got %v\nwant %v", q.Terms, got.Docs, want.Docs)
			}
			if !reflect.DeepEqual(gotStats, wantStats) {
				t.Fatalf("query %v: stats differ from the map reference\n got %+v\nwant %+v", q.Terms, gotStats, wantStats)
			}
		}
	})
}
