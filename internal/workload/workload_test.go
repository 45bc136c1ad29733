package workload

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"hybridstore/internal/simclock"
)

func TestZipfRange(t *testing.T) {
	z := NewZipf(simclock.NewRNG(1), 100, 1.0)
	for i := 0; i < 10000; i++ {
		r := z.Next()
		if r < 0 || r >= 100 {
			t.Fatalf("rank %d out of range", r)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(simclock.NewRNG(2), 1000, 1.0)
	counts := make([]int, 1000)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[100] {
		t.Fatalf("popularity not decreasing: c0=%d c10=%d c100=%d",
			counts[0], counts[10], counts[100])
	}
	// With s=1 over 1000 ranks, rank 0 gets ~1/H(1000) ≈ 13% of samples.
	share := float64(counts[0]) / n
	if share < 0.10 || share > 0.17 {
		t.Fatalf("rank-0 share = %v, want ~0.13", share)
	}
}

func TestZipfProbabilitySumsToOne(t *testing.T) {
	z := NewZipf(simclock.NewRNG(3), 500, 0.8)
	sum := 0.0
	for i := 0; i < 500; i++ {
		sum += z.Probability(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestZipfProbabilityMatchesEmpirical(t *testing.T) {
	z := NewZipf(simclock.NewRNG(4), 50, 1.0)
	const n = 200000
	counts := make([]int, 50)
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	for _, rank := range []int{0, 5, 20} {
		want := z.Probability(rank)
		got := float64(counts[rank]) / n
		if math.Abs(got-want) > 0.01+want*0.15 {
			t.Errorf("rank %d: empirical %v vs analytic %v", rank, got, want)
		}
	}
}

func TestZipfValidation(t *testing.T) {
	for _, c := range []struct {
		n int
		s float64
	}{{0, 1}, {-5, 1}, {10, 0}, {10, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d, %v) did not panic", c.n, c.s)
				}
			}()
			NewZipf(simclock.NewRNG(1), c.n, c.s)
		}()
	}
}

func TestZipfSampleIndependentOfOwnStream(t *testing.T) {
	z := NewZipf(simclock.NewRNG(5), 100, 1.0)
	ext := simclock.NewRNG(99)
	a := z.Sample(ext)
	z2 := NewZipf(simclock.NewRNG(5), 100, 1.0)
	ext2 := simclock.NewRNG(99)
	z2.Next() // consume own stream
	b := z2.Sample(ext2)
	if a != b {
		t.Fatal("Sample depends on the sampler's own RNG stream")
	}
}

func TestCollectionValidate(t *testing.T) {
	good := DefaultCollection(1000)
	if err := good.Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
	bad := []CollectionSpec{
		{NumDocs: 0, VocabSize: 10, DFExponent: 1, MaxDFShare: 0.1, MaxTF: 10},
		{NumDocs: 10, VocabSize: 0, DFExponent: 1, MaxDFShare: 0.1, MaxTF: 10},
		{NumDocs: 10, VocabSize: 10, DFExponent: 0, MaxDFShare: 0.1, MaxTF: 10},
		{NumDocs: 10, VocabSize: 10, DFExponent: 1, MaxDFShare: 0, MaxTF: 10},
		{NumDocs: 10, VocabSize: 10, DFExponent: 1, MaxDFShare: 1.5, MaxTF: 10},
		{NumDocs: 10, VocabSize: 10, DFExponent: 1, MaxDFShare: 0.1, MaxTF: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d validated", i)
		}
	}

	// Doc IDs are uint32: 2^32 documents fit, one more would wrap a doc ID.
	if math.MaxInt > math.MaxUint32 {
		limit := uint64(math.MaxUint32) + 1
		s := DefaultCollection(int(limit))
		if err := s.Validate(); err != nil {
			t.Errorf("2^32 docs: %v", err)
		}
		s.NumDocs = int(limit + 1)
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "2^32") {
			t.Errorf("2^32+1 docs: error %v, want one naming the 2^32 limit", err)
		}
	}
}

func TestDocFreqDecreasing(t *testing.T) {
	s := DefaultCollection(100000)
	prev := s.DocFreq(0)
	if prev != 10000 {
		t.Fatalf("df(0) = %d, want 10000 (10%% of 100k)", prev)
	}
	for r := 1; r < s.VocabSize; r *= 4 {
		df := s.DocFreq(TermID(r))
		if df > prev {
			t.Fatalf("df not non-increasing at rank %d: %d > %d", r, df, prev)
		}
		if df < 1 {
			t.Fatalf("df(%d) = %d", r, df)
		}
		prev = df
	}
}

func TestDocFreqPanicsOutOfVocab(t *testing.T) {
	s := DefaultCollection(100)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-vocab term did not panic")
		}
	}()
	s.DocFreq(TermID(s.VocabSize))
}

func TestPostingsDistinctDocs(t *testing.T) {
	s := DefaultCollection(5000)
	for _, term := range []TermID{0, 5, 100, 9999} {
		ps := s.Postings(term)
		if len(ps) != s.DocFreq(term) {
			t.Fatalf("term %d: %d postings, df %d", term, len(ps), s.DocFreq(term))
		}
		seen := make(map[uint32]bool, len(ps))
		for _, p := range ps {
			if p.Doc >= uint32(s.NumDocs) {
				t.Fatalf("term %d: doc %d out of range", term, p.Doc)
			}
			if seen[p.Doc] {
				t.Fatalf("term %d: duplicate doc %d", term, p.Doc)
			}
			seen[p.Doc] = true
		}
	}
}

func TestPostingsImpactOrdered(t *testing.T) {
	s := DefaultCollection(10000)
	ps := s.Postings(3)
	for i := 1; i < len(ps); i++ {
		if ps[i].TF > ps[i-1].TF {
			t.Fatalf("postings not in decreasing TF order at %d: %d > %d",
				i, ps[i].TF, ps[i-1].TF)
		}
	}
	if ps[0].TF == 0 || ps[len(ps)-1].TF == 0 {
		t.Fatal("TF must be at least 1")
	}
}

func TestPostingsDeterministic(t *testing.T) {
	s := DefaultCollection(5000)
	a := s.Postings(7)
	b := s.Postings(7)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("postings differ at %d", i)
		}
	}
}

func TestPostingsDistinctDocsProperty(t *testing.T) {
	f := func(termRaw uint16, docsRaw uint16) bool {
		s := DefaultCollection(int(docsRaw%5000) + 100)
		s.VocabSize = 500
		term := TermID(termRaw % 500)
		ps := s.Postings(term)
		seen := make(map[uint32]bool, len(ps))
		for _, p := range ps {
			if seen[p.Doc] || p.Doc >= uint32(s.NumDocs) {
				return false
			}
			seen[p.Doc] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestListBytes(t *testing.T) {
	s := DefaultCollection(1000)
	if got := s.ListBytes(0, 8); got != int64(s.DocFreq(0))*8 {
		t.Fatalf("ListBytes = %d", got)
	}
}

func TestUtilizationBounds(t *testing.T) {
	s := DefaultCollection(1000000)
	u := NewUtilizationModel(s)
	for r := 0; r < s.VocabSize; r += 97 {
		pu := u.PU(TermID(r))
		if pu <= 0 || pu > 1 {
			t.Fatalf("PU(%d) = %v out of (0,1]", r, pu)
		}
	}
}

func TestUtilizationPopularLower(t *testing.T) {
	s := DefaultCollection(1000000)
	u := NewUtilizationModel(s)
	if u.PU(0) >= u.PU(TermID(s.VocabSize-1)) {
		t.Fatalf("popular term PU %v not below rare term PU %v",
			u.PU(0), u.PU(TermID(s.VocabSize-1)))
	}
	if u.PU(0) > 0.25 {
		t.Fatalf("hottest list PU = %v, want small (early termination)", u.PU(0))
	}
	if u.PU(TermID(s.VocabSize-1)) < 0.9 {
		t.Fatalf("rarest list PU = %v, want ~1 (read fully)", u.PU(TermID(s.VocabSize-1)))
	}
}

func TestQueryLogValidate(t *testing.T) {
	good := DefaultQueryLog(1000)
	if err := good.Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := []QueryLogSpec{
		{DistinctQueries: 0, QueryExponent: 1, TermExponent: 1, MaxTermsPerQuery: 2, VocabSize: 10},
		{DistinctQueries: 10, QueryExponent: 0, TermExponent: 1, MaxTermsPerQuery: 2, VocabSize: 10},
		{DistinctQueries: 10, QueryExponent: 1, TermExponent: 1, MaxTermsPerQuery: 0, VocabSize: 10},
		{DistinctQueries: 10, QueryExponent: 1, TermExponent: 1, MaxTermsPerQuery: 2, VocabSize: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d validated", i)
		}
	}
}

func TestQueryLogDeterministic(t *testing.T) {
	spec := DefaultQueryLog(1000)
	a, b := NewQueryLog(spec), NewQueryLog(spec)
	for i := 0; i < 500; i++ {
		qa, qb := a.Next(), b.Next()
		if qa.ID != qb.ID || len(qa.Terms) != len(qb.Terms) {
			t.Fatalf("step %d: queries diverge", i)
		}
		for j := range qa.Terms {
			if qa.Terms[j] != qb.Terms[j] {
				t.Fatalf("step %d: terms diverge", i)
			}
		}
	}
}

func TestQueryStableTermsByID(t *testing.T) {
	l := NewQueryLog(DefaultQueryLog(1000))
	q1 := l.QueryByID(42)
	q2 := l.QueryByID(42)
	if q1.ID != q2.ID || len(q1.Terms) != len(q2.Terms) {
		t.Fatal("same ID produced different queries")
	}
	for i := range q1.Terms {
		if q1.Terms[i] != q2.Terms[i] {
			t.Fatal("same ID produced different terms")
		}
	}
}

func TestQueryTermsValidAndDistinct(t *testing.T) {
	spec := DefaultQueryLog(100)
	spec.DistinctQueries = 1000
	l := NewQueryLog(spec)
	for i := 0; i < 2000; i++ {
		q := l.Next()
		if len(q.Terms) < 1 || len(q.Terms) > spec.MaxTermsPerQuery {
			t.Fatalf("query %d has %d terms", q.ID, len(q.Terms))
		}
		seen := make(map[TermID]bool)
		for _, term := range q.Terms {
			if int(term) < 0 || int(term) >= spec.VocabSize {
				t.Fatalf("term %d out of vocab", term)
			}
			if seen[term] {
				t.Fatalf("query %d repeats term %d", q.ID, term)
			}
			seen[term] = true
		}
	}
}

func TestQueryRepetition(t *testing.T) {
	spec := DefaultQueryLog(1000)
	spec.DistinctQueries = 10000
	l := NewQueryLog(spec)
	seen := make(map[uint64]bool)
	repeats := 0
	const n = 20000
	for i := 0; i < n; i++ {
		q := l.Next()
		if seen[q.ID] {
			repeats++
		}
		seen[q.ID] = true
	}
	// A Zipf(0.85) stream over 10k identities repeats heavily at 20k draws.
	if float64(repeats)/n < 0.3 {
		t.Fatalf("repetition rate %v too low for result caching to matter", float64(repeats)/n)
	}
	if l.Produced() != n {
		t.Fatalf("Produced = %d", l.Produced())
	}
}

func TestTermFrequenciesZipfShaped(t *testing.T) {
	spec := DefaultQueryLog(1000)
	l := NewQueryLog(spec)
	counts := l.TermFrequencies(20000)
	if len(counts) != 1000 {
		t.Fatalf("len = %d", len(counts))
	}
	var head, tail int64
	for i := 0; i < 100; i++ {
		head += counts[i]
	}
	for i := 900; i < 1000; i++ {
		tail += counts[i]
	}
	if head <= tail*5 {
		t.Fatalf("head terms (%d) not dominating tail terms (%d)", head, tail)
	}
	// TermFrequencies must not consume the log's own stream.
	if l.Produced() != 0 {
		t.Fatalf("TermFrequencies consumed the live stream: %d", l.Produced())
	}
}

func TestNewQueryLogPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid spec did not panic")
		}
	}()
	NewQueryLog(QueryLogSpec{})
}
