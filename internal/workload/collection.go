package workload

import (
	"fmt"
	"math"
	"slices"

	"hybridstore/internal/simclock"
)

// TermID identifies a vocabulary term, assigned in descending collection
// popularity: term 0 has the longest inverted list.
type TermID int32

// CollectionSpec describes a synthetic document collection. The shape
// mirrors what the paper's index over enwiki exhibits: document frequencies
// follow a power law in term rank, so inverted-list sizes span several
// orders of magnitude (Fig 3).
type CollectionSpec struct {
	// NumDocs is the collection size (paper: up to 5,000,000).
	NumDocs int
	// VocabSize is the number of distinct indexed terms.
	VocabSize int
	// DFExponent shapes document frequency: df(rank r) ≈ MaxDF/(r+1)^DFExponent.
	DFExponent float64
	// MaxDFShare is the fraction of documents containing the most popular
	// term (df of rank 0 = MaxDFShare × NumDocs).
	MaxDFShare float64
	// MaxTF is the largest within-document term frequency.
	MaxTF int
	// Seed drives all randomness derived from the collection.
	Seed uint64
}

// DefaultCollection returns an enwiki-like spec over numDocs documents.
func DefaultCollection(numDocs int) CollectionSpec {
	return CollectionSpec{
		NumDocs:    numDocs,
		VocabSize:  10000,
		DFExponent: 0.9,
		MaxDFShare: 0.10,
		MaxTF:      255,
		Seed:       0x5eed,
	}
}

// Validate reports whether the spec is internally consistent.
func (s CollectionSpec) Validate() error {
	switch {
	case s.NumDocs <= 0:
		return fmt.Errorf("workload: NumDocs = %d", s.NumDocs)
	case uint64(s.NumDocs) > 1<<32:
		return fmt.Errorf("workload: NumDocs = %d exceeds 2^32, the uint32 doc ID space", s.NumDocs)
	case s.VocabSize <= 0:
		return fmt.Errorf("workload: VocabSize = %d", s.VocabSize)
	case s.DFExponent <= 0:
		return fmt.Errorf("workload: DFExponent = %v", s.DFExponent)
	case s.MaxDFShare <= 0 || s.MaxDFShare > 1:
		return fmt.Errorf("workload: MaxDFShare = %v", s.MaxDFShare)
	case s.MaxTF < 1:
		return fmt.Errorf("workload: MaxTF = %d", s.MaxTF)
	}
	return nil
}

// DocFreq returns the number of documents containing term t. It is a pure
// function of the spec, so index builders and analytical models agree.
func (s CollectionSpec) DocFreq(t TermID) int {
	if int(t) < 0 || int(t) >= s.VocabSize {
		panic(fmt.Sprintf("workload: term %d out of vocab [0,%d)", t, s.VocabSize))
	}
	maxDF := float64(s.NumDocs) * s.MaxDFShare
	df := int(maxDF / math.Pow(float64(t)+1, s.DFExponent))
	if df < 1 {
		df = 1
	}
	if df > s.NumDocs {
		df = s.NumDocs
	}
	return df
}

// Posting is one entry of an inverted list: a document and the term's
// within-document frequency.
type Posting struct {
	Doc uint32
	TF  uint16
}

// Postings generates term t's inverted list, ordered by decreasing TF —
// the "frequency-sorted" impact order the paper's filtered vector model
// relies on (§VI). Documents are distinct and deterministic per spec.
func (s CollectionSpec) Postings(t TermID) []Posting {
	return s.AppendPostings(make([]Posting, 0, s.DocFreq(t)), t)
}

// AppendPostings appends term t's inverted list (see Postings) to dst, so a
// builder walking the vocabulary can generate every list into one buffer.
func (s CollectionSpec) AppendPostings(dst []Posting, t TermID) []Posting {
	df := s.DocFreq(t)
	rng := simclock.NewRNG(s.Seed).Split(uint64(t) + 1)
	// A full-period affine walk over [0, NumDocs) yields df distinct docs.
	n := uint64(s.NumDocs)
	start := rng.Uint64() % n
	step := rng.Uint64()%n | 1
	for gcd(step, n) != 1 {
		step += 2
		if step >= n {
			step = 1
		}
	}
	dst = slices.Grow(dst, df)
	out := dst[len(dst) : len(dst)+df]
	doc := start
	for i := range out {
		out[i] = Posting{Doc: uint32(doc), TF: s.tfAtImpactRank(i, df)}
		// doc < n and step ≤ n, so one subtraction is the modulo.
		if doc += step; doc >= n {
			doc -= n
		}
	}
	return dst[:len(dst)+df]
}

// tfAtImpactRank returns the term frequency of the i-th posting in impact
// order: a convex decreasing curve from ~MaxTF down to 1.
func (s CollectionSpec) tfAtImpactRank(i, df int) uint16 {
	frac := 0.0
	if df > 1 {
		frac = float64(i) / float64(df-1)
	}
	// x*x is math.Pow(x, 2) to the bit: Pow squares the mantissa once, and
	// x is 0 or above 2^-33, so the square stays clear of subnormals.
	x := 1 - frac
	return uint16(max(1, float64(s.MaxTF)*(x*x)))
}

// ListBytes returns the serialized size of term t's inverted list under the
// index encoding (index.PostingSize bytes per posting). Sizes are what the
// cache manager's efficiency-value computation consumes.
func (s CollectionSpec) ListBytes(t TermID, postingSize int) int64 {
	return int64(s.DocFreq(t)) * int64(postingSize)
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// UtilizationModel gives each term's list utilization rate PU: the fraction
// of the inverted list actually traversed during query processing. The
// paper measures this from the query log (Fig 3a) and feeds it to Formula 1.
//
// The model captures the mechanism behind Fig 3a: popular terms have long
// impact-ordered lists of which early termination reads only a small
// prefix, while rare terms' short lists are read fully.
type UtilizationModel struct {
	spec CollectionSpec
}

// NewUtilizationModel derives the model for a collection.
func NewUtilizationModel(spec CollectionSpec) *UtilizationModel {
	return &UtilizationModel{spec: spec}
}

// PU returns the utilization rate of term t in (0, 1].
func (u *UtilizationModel) PU(t TermID) float64 {
	df := float64(u.spec.DocFreq(t))
	// Early termination examines roughly the postings whose tf clears the
	// top-K threshold; with the quadratic impact curve this is a sublinear
	// share of long lists. Floor at 8 postings: tiny lists are read whole.
	needed := 8 + 40*math.Sqrt(df)/4
	pu := needed / df
	if pu > 1 {
		pu = 1
	}
	if pu < 0.01 {
		pu = 0.01
	}
	return pu
}
