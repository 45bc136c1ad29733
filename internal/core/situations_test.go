package core

import (
	"testing"
	"time"

	"hybridstore/internal/workload"
)

// situationFixture engineers specific cache states so each Table I
// situation can be produced on demand.
type situationFixture struct {
	*fixture
}

func newSituationFixture(t *testing.T) *situationFixture {
	cfg := testConfig(PolicyCBLRU)
	cfg.MemListBytes = 64 << 10
	cfg.PrefetchQuantum = -1 // exact prefixes make byte math predictable
	return &situationFixture{newFixture(t, cfg)}
}

// classify runs one query touching the given (term, bytes) reads and
// returns its classified situation.
func (f *situationFixture) classify(t *testing.T, qid uint64, reads map[workload.TermID]int64) Situation {
	t.Helper()
	before := f.m.Stats().Situations
	f.m.BeginQuery(qid)
	for term, n := range reads {
		buf := make([]byte, n)
		if err := f.m.ReadListRange(term, 0, buf); err != nil {
			t.Fatal(err)
		}
	}
	f.m.EndQuery(time.Millisecond)
	after := f.m.Stats().Situations
	for s := S1ResultMem; s < numSituations; s++ {
		if after.Counts[s] == before.Counts[s]+1 {
			return s
		}
	}
	t.Fatal("no situation classified")
	return 0
}

// evictToSSD forces term's L1 entry to the SSD by flushing it directly and
// writing the list write buffer out behind it.
func (f *situationFixture) evictToSSD(t *testing.T, term workload.TermID) {
	t.Helper()
	e, ok := f.m.ic.Peek(uint64(term))
	if !ok {
		t.Fatalf("term %d not in L1", term)
	}
	ml := e.Value
	f.m.ic.RemoveEntry(e)
	f.m.flushListToSSD(ml)
	f.m.flush(&f.m.lists, nil)
	if sl := f.m.ssdListFor(term); sl == nil || sl.ext == nil {
		t.Fatalf("term %d did not reach SSD", term)
	}
}

func TestSituationS3AllMemory(t *testing.T) {
	f := newSituationFixture(t)
	f.readSome(t, 10, 8<<10) // prime L1
	got := f.classify(t, 1, map[workload.TermID]int64{10: 8 << 10})
	if got != S3ListsMem {
		t.Fatalf("got %v, want S3", got)
	}
}

func TestSituationS5AllSSD(t *testing.T) {
	f := newSituationFixture(t)
	f.readSome(t, 10, 8<<10)
	f.evictToSSD(t, 10)
	got := f.classify(t, 2, map[workload.TermID]int64{10: 8 << 10})
	if got != S5ListsSSD {
		t.Fatalf("got %v, want S5", got)
	}
}

func TestSituationS9AllHDD(t *testing.T) {
	f := newSituationFixture(t)
	got := f.classify(t, 3, map[workload.TermID]int64{10: 8 << 10})
	if got != S9ListsHDD {
		t.Fatalf("got %v, want S9", got)
	}
}

func TestSituationS6MemPlusHDD(t *testing.T) {
	f := newSituationFixture(t)
	f.readSome(t, 10, 8<<10) // 8 KiB prefix in memory
	// Request more than the prefix: memory + HDD tail.
	got := f.classify(t, 4, map[workload.TermID]int64{10: 12 << 10})
	if got != S6ListsMemHDD {
		t.Fatalf("got %v, want S6", got)
	}
}

func TestSituationS8SSDPlusHDD(t *testing.T) {
	f := newSituationFixture(t)
	f.readSome(t, 10, 8<<10)
	f.evictToSSD(t, 10)
	// SSD holds 8 KiB; ask for 12: SSD + HDD with no memory copy.
	got := f.classify(t, 5, map[workload.TermID]int64{10: 12 << 10})
	if got != S8ListsSSDHDD {
		t.Fatalf("got %v, want S8", got)
	}
}

func TestSituationS4MemPlusSSD(t *testing.T) {
	f := newSituationFixture(t)
	// Term A in memory; term B on SSD only.
	f.readSome(t, 10, 8<<10)
	f.readSome(t, 11, 8<<10)
	f.evictToSSD(t, 11)
	got := f.classify(t, 6, map[workload.TermID]int64{10: 8 << 10, 11: 8 << 10})
	if got != S4ListsMemSSD {
		t.Fatalf("got %v, want S4", got)
	}
}

func TestSituationS7AllThree(t *testing.T) {
	f := newSituationFixture(t)
	f.readSome(t, 10, 8<<10) // memory
	f.readSome(t, 11, 8<<10)
	f.evictToSSD(t, 11) // SSD
	// Term 12 untouched: HDD.
	got := f.classify(t, 7, map[workload.TermID]int64{
		10: 8 << 10, 11: 8 << 10, 12: 8 << 10,
	})
	if got != S7ListsMemSSDHDD {
		t.Fatalf("got %v, want S7", got)
	}
}

func TestSituationS1AndS2ResultHits(t *testing.T) {
	f := newSituationFixture(t)
	size := f.m.Config().ResultEntryBytes
	f.m.PutResult(100, entryOf(100, 1, size))

	f.m.BeginQuery(100)
	if _, src := f.m.GetResult(100); src != ResultFromMemory {
		t.Fatal("expected memory hit")
	}
	f.m.EndQuery(time.Microsecond)
	if f.m.Stats().Situations.Counts[S1ResultMem] != 1 {
		t.Fatal("S1 not recorded")
	}

	// Push the entry to SSD, drop it from L1, and hit it there.
	for q := uint64(101); q <= 130; q++ {
		f.m.PutResult(q, entryOf(q, byte(q), size))
	}
	flushResults(f.m)
	if _, ok := f.m.results.dyn[100]; !ok {
		t.Skip("entry 100 did not land on SSD")
	}
	if e, ok := f.m.rc.Peek(100); ok {
		f.m.rc.RemoveEntry(e) // ensure the L1 copy is gone
	}
	f.m.BeginQuery(100)
	if _, src := f.m.GetResult(100); src != ResultFromSSD {
		t.Skip("entry 100 not servable from SSD")
	}
	f.m.EndQuery(time.Microsecond)
	if f.m.Stats().Situations.Counts[S2ResultSSD] != 1 {
		t.Fatal("S2 not recorded")
	}
}

func TestSituationProbabilitiesSumToOne(t *testing.T) {
	f := newSituationFixture(t)
	for q := uint64(1); q <= 50; q++ {
		term := workload.TermID(10 + q%20)
		n := f.ix.ListBytes(term)
		if n > 8<<10 {
			n = 8 << 10
		}
		f.classify(t, q, map[workload.TermID]int64{term: n})
	}
	tally := f.m.Stats().Situations
	var sum float64
	for s := S1ResultMem; s < numSituations; s++ {
		sum += tally.Probability(s)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}
