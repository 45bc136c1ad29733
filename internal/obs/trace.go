// Package obs is the observability layer of the reproduction: per-query
// tracing with storage-level attribution, latency histograms, the
// simulated-time latency profile and a series of Samples of the run's
// headline quantities. Every count lives where it is made (core.Stats, the
// device counters); obs reads them, it keeps no copy.
//
// The simulator's serving path stays synchronous and single-threaded; the
// types here are nevertheless mutex-guarded so reports and progress reads
// can run concurrently with a driver.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"hybridstore/internal/simclock"
)

// Span is one attributed step inside a query trace: a list read served by
// one storage level, a result-cache probe, a cache flush or an eviction.
type Span struct {
	// Kind is the step type: "list", "result", "flush_list", "flush_result",
	// "evict_list", "evict_result", "queue_wait".
	Kind string `json:"kind"`
	// Term is the inverted-list term, for list-related spans.
	Term int64 `json:"term,omitempty"`
	// Level is the storage level that served or held the data
	// ("mem", "ssd", "hdd"); empty where it does not apply.
	Level string `json:"level,omitempty"`
	// Bytes is the payload size of the step.
	Bytes int64 `json:"bytes,omitempty"`
	// StartNS is the span's offset from the query start in simulated
	// nanoseconds. Spans tile the query: each one absorbs the simulated
	// time accrued since the previous span was recorded.
	StartNS int64 `json:"start_ns,omitempty"`
	// DurNS is the simulated time attributed to this span in nanoseconds.
	DurNS int64 `json:"dur_ns,omitempty"`
}

// QueryTrace is the record of one query through the hierarchy. All times
// are simulated. Byte fields attribute inverted-list reads per level and,
// summed over all traces of a run, equal the manager's Stats totals.
type QueryTrace struct {
	// Seq numbers completed traces from 0 in completion order.
	Seq int64 `json:"seq"`
	// QID is the query's log ID.
	QID uint64 `json:"qid"`
	// StartUS is the simulated start time in microseconds.
	StartUS int64 `json:"start_us"`
	// ElapsedUS is the simulated response time in microseconds.
	ElapsedUS int64 `json:"elapsed_us"`
	// Situation is the Table I classification ("S1(R:mem)" ... "S9(I:hdd)"),
	// or empty for uncached executions.
	Situation string `json:"situation,omitempty"`
	// ResultLevel says where the result-cache probe was served ("mem",
	// "ssd") or "miss"; empty when no result cache exists.
	ResultLevel string `json:"result_level,omitempty"`
	// MemBytes, SSDBytes and HDDBytes attribute list bytes per level.
	MemBytes int64 `json:"mem_bytes"`
	SSDBytes int64 `json:"ssd_bytes"`
	HDDBytes int64 `json:"hdd_bytes"`
	// Flushes counts SSD cache flushes (list extents + result blocks)
	// triggered while serving this query; FlushBytes their payload.
	Flushes    int   `json:"flushes,omitempty"`
	FlushBytes int64 `json:"flush_bytes,omitempty"`
	// Evictions counts cache evictions (both levels, both data types)
	// triggered while serving this query.
	Evictions int `json:"evictions,omitempty"`
	// HDDReads and HDDSeeks count backing-store operations and how many of
	// them paid mechanical positioning cost.
	HDDReads int `json:"hdd_reads,omitempty"`
	HDDSeeks int `json:"hdd_seeks,omitempty"`
	// ElapsedNS is the simulated response time in nanoseconds (ElapsedUS
	// is kept for readability; this field carries full precision so the
	// attribution contract below is exact).
	ElapsedNS int64 `json:"elapsed_ns,omitempty"`
	// Attrib partitions ElapsedNS across the attribution components.
	// Present only when the system's clock feeds the tracer (see
	// Tracer.AddTime); when present, Attrib.Sum() == ElapsedNS.
	Attrib *Attrib `json:"attrib,omitempty"`
	// Spans is the ordered step list, capped at the tracer's span limit.
	// When the cap truncates the list, a final synthetic span of kind
	// "truncated" carries the residual time so span durations still sum
	// to ElapsedNS.
	Spans []Span `json:"spans,omitempty"`
	// SpansDropped counts spans discarded past the cap.
	SpansDropped int `json:"spans_dropped,omitempty"`
}

// Tracer builds one per-query trace at a time and, optionally, streams
// every completed trace to a writer as NDJSON. It keeps no completed
// traces: End returns each one to its caller.
type Tracer struct {
	mu  sync.Mutex
	seq int64 // next completion sequence number

	cur       *QueryTrace
	spanLimit int
	// pendNS is simulated time accrued (via AddTime) since the last
	// recorded span; boundNS is the query-relative offset the recorded
	// spans tile up to. Together they give spans start/duration without
	// the event emitters knowing about time at all.
	pendNS  int64
	boundNS int64

	enc     *json.Encoder
	sinkErr error
}

// DefaultSpanLimit caps the per-trace span list so a pathological query
// cannot balloon one record.
const DefaultSpanLimit = 256

// NewTracer returns a tracer with the default span limit.
func NewTracer() *Tracer {
	return &Tracer{spanLimit: DefaultSpanLimit}
}

// SetSpanLimit overrides the per-trace span cap (n <= 0 disables span
// capture entirely, keeping only the aggregate fields).
func (t *Tracer) SetSpanLimit(n int) {
	t.mu.Lock()
	t.spanLimit = n
	t.mu.Unlock()
}

// StreamTo makes the tracer write every completed trace to w as one JSON
// object per line (NDJSON), in completion order.
func (t *Tracer) StreamTo(w io.Writer) {
	t.mu.Lock()
	t.enc = json.NewEncoder(w)
	t.mu.Unlock()
}

// Err returns the first error the NDJSON sink reported, if any.
func (t *Tracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sinkErr
}

// Begin opens a trace for a query starting at the given simulated time.
// An unfinished previous trace is discarded.
func (t *Tracer) Begin(qid uint64, at time.Duration) {
	t.mu.Lock()
	t.cur = &QueryTrace{QID: qid, StartUS: at.Microseconds()}
	t.pendNS, t.boundNS = 0, 0
	t.mu.Unlock()
}

// AddTime attributes d of simulated time to component c on the current
// trace. Wired to simclock.Clock.OnAdvance, it sees every clock advance
// between Begin and End, which is what makes the per-query attribution sum
// exactly to the elapsed time. No-op when no trace is open.
func (t *Tracer) AddTime(c simclock.Component, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur == nil {
		return
	}
	if t.cur.Attrib == nil {
		t.cur.Attrib = new(Attrib)
	}
	t.cur.Attrib.Add(c, d)
	t.pendNS += int64(d)
}

// addSpan appends a span to the current trace under the span cap. A
// recorded span absorbs the simulated time accrued since the previous
// span; time accrued while spans are being dropped keeps accumulating and
// is swept into the synthetic "truncated" span at End. The caller holds
// t.mu.
func (t *Tracer) addSpan(s Span) {
	if t.cur == nil {
		return
	}
	if t.spanLimit > 0 && len(t.cur.Spans) < t.spanLimit {
		s.StartNS = t.boundNS
		s.DurNS = t.pendNS
		t.boundNS += t.pendNS
		t.pendNS = 0
		t.cur.Spans = append(t.cur.Spans, s)
	} else {
		t.cur.SpansDropped++
	}
}

// ListRead records a per-term list read served by one level.
func (t *Tracer) ListRead(term int64, level string, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur == nil {
		return
	}
	switch level {
	case "mem":
		t.cur.MemBytes += bytes
	case "ssd":
		t.cur.SSDBytes += bytes
	case "hdd":
		t.cur.HDDBytes += bytes
	}
	t.addSpan(Span{Kind: "list", Term: term, Level: level, Bytes: bytes})
}

// ResultProbe records the outcome of the result-cache lookup.
func (t *Tracer) ResultProbe(level string, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur == nil {
		return
	}
	t.cur.ResultLevel = level
	t.addSpan(Span{Kind: "result", Level: level, Bytes: bytes})
}

// Flush records an SSD cache flush (list extent or result block) that the
// current query triggered.
func (t *Tracer) Flush(kind string, term int64, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur == nil {
		return
	}
	t.cur.Flushes++
	t.cur.FlushBytes += bytes
	t.addSpan(Span{Kind: kind, Term: term, Bytes: bytes})
}

// Evict records a cache eviction the current query triggered.
func (t *Tracer) Evict(kind string, term int64, level string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur == nil {
		return
	}
	t.cur.Evictions++
	t.addSpan(Span{Kind: kind, Term: term, Level: level})
}

// QueueWait records serving-layer queue delay on the current trace: time
// the query spent parked behind other work before (or instead of)
// executing. The span absorbs pending attributed time like any other, so
// the caller must have already routed the wait through AddTime (for
// shard-clock advances that route is the OnAdvance hook; synthetic
// coalesced traces call AddTime directly).
func (t *Tracer) QueueWait() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur == nil {
		return
	}
	t.addSpan(Span{Kind: "queue_wait"})
}

// HDDOp records one backing-store operation attributed to the current query.
func (t *Tracer) HDDOp(seek bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur == nil {
		return
	}
	t.cur.HDDReads++
	if seek {
		t.cur.HDDSeeks++
	}
}

// SetSituation records the Table I classification of the current query.
func (t *Tracer) SetSituation(sit string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur == nil {
		return
	}
	t.cur.Situation = sit
}

// End finalizes the current trace with its simulated elapsed time and
// streams it to the NDJSON sink when one is attached. It returns the
// completed trace; the zero trace is returned when no trace was open.
func (t *Tracer) End(elapsed time.Duration) QueryTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur == nil {
		return QueryTrace{}
	}
	tr := *t.cur
	t.cur = nil
	tr.ElapsedUS = elapsed.Microseconds()
	tr.ElapsedNS = elapsed.Nanoseconds()
	if t.spanLimit > 0 && tr.SpansDropped > 0 && tr.ElapsedNS > t.boundNS {
		// The cap truncated the span list; a synthetic span carries the
		// residual so span durations still tile the whole query.
		tr.Spans = append(tr.Spans, Span{
			Kind: "truncated", StartNS: t.boundNS, DurNS: tr.ElapsedNS - t.boundNS,
		})
	}
	tr.Seq = t.seq
	t.seq++

	if t.enc != nil {
		if err := t.enc.Encode(&tr); err != nil && t.sinkErr == nil {
			t.sinkErr = fmt.Errorf("obs: trace sink: %w", err)
		}
	}
	return tr
}

// Completed returns the total number of traces finished since creation.
func (t *Tracer) Completed() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}
