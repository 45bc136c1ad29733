package trace

import (
	"sync"
	"testing"

	"hybridstore/internal/storage"
)

func read(off int64, n int) storage.Op {
	return storage.Op{Kind: storage.OpRead, Offset: off, Len: n}
}

func write(off int64, n int) storage.Op {
	return storage.Op{Kind: storage.OpWrite, Offset: off, Len: n}
}

func TestRecorderBasics(t *testing.T) {
	var r Recorder
	r.Record(read(0, 512))
	r.Record(write(512, 512))
	ops := r.Ops()
	if len(ops) != 2 || ops[0].Kind != storage.OpRead || ops[1].Kind != storage.OpWrite {
		t.Fatalf("ops = %+v", ops)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	var r Recorder
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Record(read(0, 512))
			}
		}()
	}
	wg.Wait()
	if n := len(r.Ops()); n != 800 {
		t.Fatalf("recorded %d ops, want 800", n)
	}
}

func TestReadSequence(t *testing.T) {
	ops := []storage.Op{read(1024, 512), write(0, 512), read(4096, 512)}
	pts := ReadSequence(ops)
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Seq != 0 || pts[0].LSN != 2 {
		t.Fatalf("pts[0] = %+v", pts[0])
	}
	if pts[1].Seq != 1 || pts[1].LSN != 8 {
		t.Fatalf("pts[1] = %+v", pts[1])
	}
}

func TestAnalyzeReadFraction(t *testing.T) {
	var ops []storage.Op
	for i := 0; i < 99; i++ {
		ops = append(ops, read(int64(i)*1024, 512))
	}
	ops = append(ops, write(0, 512))
	c := Analyze(ops)
	if c.Ops != 100 || c.Reads != 99 {
		t.Fatalf("counts: %+v", c)
	}
	if c.ReadFraction != 0.99 {
		t.Fatalf("ReadFraction = %v", c.ReadFraction)
	}
}

func TestAnalyzeSequential(t *testing.T) {
	ops := []storage.Op{read(0, 512), read(512, 512), read(1024, 512), read(1<<30, 512)}
	c := Analyze(ops)
	want := 2.0 / 3.0
	if diff := c.SequentialFraction - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("SequentialFraction = %v, want %v", c.SequentialFraction, want)
	}
}

func TestAnalyzeBackward(t *testing.T) {
	ops := []storage.Op{read(1<<20, 512), read(0, 512)}
	c := Analyze(ops)
	if c.BackwardFraction != 1.0 {
		t.Fatalf("BackwardFraction = %v", c.BackwardFraction)
	}
}

func TestAnalyzeSkippedReads(t *testing.T) {
	// Forward jumps smaller than SkipWindow count as skips.
	ops := []storage.Op{read(0, 512), read(10<<10, 512), read(30<<10, 512)}
	c := Analyze(ops)
	if c.ForwardSkipFraction != 1.0 {
		t.Fatalf("ForwardSkipFraction = %v", c.ForwardSkipFraction)
	}
	// A jump beyond the window is a random read, not a skip.
	ops = []storage.Op{read(0, 512), read(10<<20, 512)}
	c = Analyze(ops)
	if c.ForwardSkipFraction != 0 {
		t.Fatalf("far jump counted as skip: %v", c.ForwardSkipFraction)
	}
}

func TestAnalyzeFootprint(t *testing.T) {
	ops := []storage.Op{read(0, 1024), read(0, 1024), read(2048, 512)}
	c := Analyze(ops)
	if c.UniqueSectors != 3 { // sectors 0,1 and 4
		t.Fatalf("UniqueSectors = %d", c.UniqueSectors)
	}
}

func TestAnalyzeLocalitySkewed(t *testing.T) {
	var ops []storage.Op
	// 90 hits on one sector, 1 hit on each of 9 others: hot 10% (1 of 10
	// sectors) captures 90/99 of accesses.
	for i := 0; i < 90; i++ {
		ops = append(ops, read(0, 512))
	}
	for i := 1; i <= 9; i++ {
		ops = append(ops, read(int64(i)*512, 512))
	}
	c := Analyze(ops)
	if c.Top10PctShare < 0.9 {
		t.Fatalf("Top10PctShare = %v, want >= 0.9", c.Top10PctShare)
	}
}

func TestAnalyzeLocalityUniform(t *testing.T) {
	var ops []storage.Op
	for i := 0; i < 100; i++ {
		ops = append(ops, read(int64(i)*512, 512))
	}
	c := Analyze(ops)
	if c.Top10PctShare > 0.11 {
		t.Fatalf("uniform trace Top10PctShare = %v", c.Top10PctShare)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	c := Analyze(nil)
	if c.Ops != 0 || c.ReadFraction != 0 || c.UniqueSectors != 0 || c.Top10PctShare != 0 {
		t.Fatalf("empty analysis = %+v", c)
	}
}

func TestAnalyzeSingleOp(t *testing.T) {
	c := Analyze([]storage.Op{read(0, 512)})
	if c.SequentialFraction != 0 || c.BackwardFraction != 0 {
		t.Fatalf("single-op fractions: %+v", c)
	}
}

func TestAnalyzeZeroLenOp(t *testing.T) {
	c := Analyze([]storage.Op{{Kind: storage.OpRead, Offset: 512, Len: 0}})
	if c.UniqueSectors != 1 {
		t.Fatalf("zero-len op footprint = %d", c.UniqueSectors)
	}
}
