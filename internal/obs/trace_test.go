package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// endTrace completes one minimal trace with the given query ID.
func endTrace(t *Tracer, qid uint64) QueryTrace {
	t.Begin(qid, time.Duration(qid)*time.Millisecond)
	t.ListRead(7, "ssd", 100)
	return t.End(time.Millisecond)
}

// TestTracerStreamsNDJSON: every completed trace reaches the stream as one
// NDJSON line, in completion order, numbered by Seq from 0.
func TestTracerStreamsNDJSON(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer()
	tr.StreamTo(&buf)
	for qid := uint64(1); qid <= 5; qid++ {
		endTrace(tr, qid)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Completed(); got != 5 {
		t.Fatalf("Completed=%d want 5", got)
	}
	var n int64
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var q QueryTrace
		if err := json.Unmarshal(sc.Bytes(), &q); err != nil {
			t.Fatalf("invalid NDJSON line: %v", err)
		}
		if q.Seq != n || q.QID != uint64(n+1) {
			t.Fatalf("line %d: seq=%d qid=%d, want %d/%d", n, q.Seq, q.QID, n, n+1)
		}
		if q.SSDBytes != 100 {
			t.Fatalf("ssd_bytes=%d want 100", q.SSDBytes)
		}
		n++
	}
	if n != 5 {
		t.Fatalf("streamed %d records, want 5", n)
	}
}

func TestTracerAttribution(t *testing.T) {
	tr := NewTracer()
	tr.Begin(42, 0)
	tr.ResultProbe("miss", 0)
	tr.ListRead(1, "mem", 10)
	tr.ListRead(2, "ssd", 20)
	tr.ListRead(3, "hdd", 30)
	tr.ListRead(1, "mem", 5)
	tr.Flush("flush_list", 2, 4096)
	tr.Evict("evict_list", 9, "ssd")
	tr.HDDOp(true)
	tr.HDDOp(false)
	tr.SetSituation("S9(I:hdd)")
	q := tr.End(3 * time.Millisecond)

	if q.MemBytes != 15 || q.SSDBytes != 20 || q.HDDBytes != 30 {
		t.Fatalf("byte attribution mem=%d ssd=%d hdd=%d", q.MemBytes, q.SSDBytes, q.HDDBytes)
	}
	if q.ResultLevel != "miss" || q.Situation != "S9(I:hdd)" {
		t.Fatalf("result_level=%q situation=%q", q.ResultLevel, q.Situation)
	}
	if q.Flushes != 1 || q.FlushBytes != 4096 || q.Evictions != 1 {
		t.Fatalf("flushes=%d flush_bytes=%d evictions=%d", q.Flushes, q.FlushBytes, q.Evictions)
	}
	if q.HDDReads != 2 || q.HDDSeeks != 1 {
		t.Fatalf("hdd_reads=%d hdd_seeks=%d", q.HDDReads, q.HDDSeeks)
	}
	if q.ElapsedUS != 3000 {
		t.Fatalf("elapsed_us=%d want 3000", q.ElapsedUS)
	}
	// 1 result probe + 4 list reads + 1 flush + 1 evict (HDD ops are
	// aggregate-only, no spans).
	if len(q.Spans) != 7 {
		t.Fatalf("spans=%d want 7", len(q.Spans))
	}
}

func TestTracerSpanLimit(t *testing.T) {
	tr := NewTracer()
	tr.SetSpanLimit(3)
	tr.Begin(1, 0)
	for i := 0; i < 10; i++ {
		tr.ListRead(int64(i), "mem", 1)
	}
	q := tr.End(0)
	if len(q.Spans) != 3 || q.SpansDropped != 7 {
		t.Fatalf("spans=%d dropped=%d, want 3/7", len(q.Spans), q.SpansDropped)
	}
	if q.MemBytes != 10 {
		t.Fatalf("aggregate bytes must survive the span cap: mem=%d want 10", q.MemBytes)
	}
}

func TestTracerEventsOutsideQueryDropped(t *testing.T) {
	tr := NewTracer()
	tr.ListRead(1, "mem", 100) // no open trace: must not panic or leak
	if q := tr.End(0); q.QID != 0 || tr.Completed() != 0 {
		t.Fatalf("End without Begin produced a trace: %+v", q)
	}
}
