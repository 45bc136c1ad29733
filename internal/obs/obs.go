package obs

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"hybridstore/internal/core"
	"hybridstore/internal/metrics"
	"hybridstore/internal/simclock"
	"hybridstore/internal/storage"
)

// numSituations mirrors core's Table I situation count; slot numSituations
// holds uncached executions (no manager, hence no classification).
const numSituations = 9

// LatencyBounds returns the log-spaced microsecond bucket bounds used for
// every query-latency histogram: 16 µs up to ~33 s, doubling.
func LatencyBounds() []int64 { return metrics.ExpBounds(16, 2, 22) }

// Options configures an Observer.
type Options struct {
	// TraceOut, when non-nil, receives every completed trace as NDJSON.
	TraceOut io.Writer
	// SpanLimit caps per-trace span lists (0 = DefaultSpanLimit; negative
	// disables span capture, keeping only aggregate fields and attribution).
	SpanLimit int
	// SampleEvery appends one Sample to the series every this many queries
	// (0 = 1000).
	SampleEvery int
}

// Sample is one reading of a run's headline quantities, taken every
// SampleEvery queries: the queries completed and the mean latency of the
// SampleEvery queries since the previous sample (rounded to the µs), then,
// read through the system at that moment, the Fig 14 hit ratios, the cache
// SSD's erase count and write amplification (Fig 19), the fault-handling
// state and the HDD's sequential share. A quantity the configuration lacks
// (no cache manager, no cache SSD, no fault injector) reads zero.
type Sample struct {
	AtUS             int64   `json:"at_us"`
	Queries          int64   `json:"queries"`
	IntervalMeanUS   int64   `json:"interval_mean_us"`
	RC               float64 `json:"rc"`
	IC               float64 `json:"ic"`
	RIC              float64 `json:"ric"`
	SSDErases        int64   `json:"ssd_erases"`
	SSDWriteAmp      float64 `json:"ssd_write_amp"`
	Degraded         bool    `json:"degraded"`
	QuarantinedBytes int64   `json:"quarantined_bytes"`
	InjectedErrors   int64   `json:"injected_errors"`
	HDDSeqHitRatio   float64 `json:"hdd_seq_hit_ratio"`
}

// Observer is the per-run observability hub: it owns the Tracer, the
// latency-attribution Profile, the per-situation latency histograms and the
// series of Samples, and consumes the cache manager's event stream and the
// backing store's op hook.
type Observer struct {
	Tracer *Tracer

	latAll  *metrics.Histogram
	latSit  [numSituations + 1]*metrics.Histogram
	profile *Profile

	mu          sync.Mutex
	sampler     func() Sample // nil until SetSampler
	queries     int64
	sampleEvery int64
	series      []Sample
	curSit      core.Situation
	curSitSeen  bool
	sinceSample time.Duration // summed latency of the queries since the last sample point
}

// New builds an Observer with a fresh Tracer.
func New(opts Options) *Observer {
	o := fresh(NewTracer(), int64(opts.SampleEvery))
	if o.sampleEvery <= 0 {
		o.sampleEvery = 1000
	}
	if opts.SpanLimit != 0 {
		o.Tracer.SetSpanLimit(opts.SpanLimit)
	}
	if opts.TraceOut != nil {
		o.Tracer.StreamTo(opts.TraceOut)
	}
	return o
}

// NewTraceFile is New with every completed trace streamed as NDJSON into a
// file created at path, behind a 1 MiB buffer; an empty path is New alone.
// closeTrace flushes and closes the file and returns the first error of the
// buffer, the file or the tracer's stream; on success it writes "wrote N
// trace records to <path>" to report. Without a path it does nothing.
func NewTraceFile(path string, opts Options) (o *Observer, closeTrace func(report io.Writer) error, err error) {
	if path == "" {
		return New(opts), func(io.Writer) error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	opts.TraceOut = w
	o = New(opts)
	return o, func(report io.Writer) error {
		err := w.Flush()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if terr := o.Tracer.Err(); err == nil && terr != nil {
			err = fmt.Errorf("trace stream: %w", terr)
		}
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(report, "wrote %d trace records to %s\n", o.Tracer.Completed(), path)
		return err
	}, nil
}

// Fork returns an Observer that shares o's Tracer — and therefore its
// NDJSON stream and completed-trace count — but owns fresh
// histograms, profile and series. Drivers that measure a sequence of
// systems need this: each system's virtual clock restarts at zero, so its
// samples must be private, while all traces still land in one stream.
func (o *Observer) Fork() *Observer { return fresh(o.Tracer, o.sampleEvery) }

// fresh returns an Observer over tr with empty histograms and series.
func fresh(tr *Tracer, sampleEvery int64) *Observer {
	o := &Observer{Tracer: tr, profile: NewProfile(), sampleEvery: sampleEvery}
	for i := range o.latSit {
		o.latSit[i] = metrics.NewHistogram(LatencyBounds())
	}
	o.latAll = metrics.NewHistogram(LatencyBounds())
	return o
}

// SetSampler installs the function the series reads the run's headline
// quantities through. It is called at sampling time, so it sees
// whatever the system holds then.
func (o *Observer) SetSampler(fn func() Sample) {
	o.mu.Lock()
	o.sampler = fn
	o.mu.Unlock()
}

// BeginQuery opens tracing for one query at simulated time now.
func (o *Observer) BeginQuery(qid uint64, now time.Duration) {
	o.mu.Lock()
	o.curSitSeen = false
	o.mu.Unlock()
	o.Tracer.Begin(qid, now)
}

// HandleEvent consumes one cache-manager event (wired to
// core.Manager.SetEventSink). Kinds that only feed core.Stats leave no trace.
func (o *Observer) HandleEvent(e core.Event) {
	switch e.Kind {
	case core.EvListRead, core.EvListFill:
		o.Tracer.ListRead(int64(e.Term), e.Level.String(), e.Bytes)
	case core.EvResultHit:
		o.Tracer.ResultProbe(e.Level.String(), e.Bytes)
	case core.EvResultMiss:
		o.Tracer.ResultProbe("miss", 0)
	case core.EvListFlush:
		o.Tracer.Flush("flush_list", int64(e.Term), e.Bytes)
	case core.EvResultFlush, core.EvRBFlush:
		o.Tracer.Flush("flush_result", 0, e.Bytes)
	case core.EvListEvict:
		o.Tracer.Evict("evict_list", int64(e.Term), e.Level.String())
	case core.EvResultEvict, core.EvRBRetire:
		o.Tracer.Evict("evict_result", 0, e.Level.String())
	case core.EvQueryEnd:
		o.mu.Lock()
		o.curSit = e.Sit
		o.curSitSeen = true
		o.mu.Unlock()
		o.Tracer.SetSituation(e.Sit.String())
	}
}

// HandleClockAdvance consumes one labeled clock advance (wired to
// simclock.Clock.OnAdvance), attributing the time to the in-flight query.
// Seeing every advance at the clock itself is what makes per-query
// attribution sum exactly to elapsed time.
func (o *Observer) HandleClockAdvance(c simclock.Component, d time.Duration) {
	o.Tracer.AddTime(c, d)
}

// Profile returns the cumulative per-situation latency-attribution profile
// folded from completed traces.
func (o *Observer) Profile() *Profile { return o.profile }

// HandleBackingOp consumes one backing-store (index device) operation,
// attributing reads and seeks to the in-flight query.
func (o *Observer) HandleBackingOp(op storage.Op) {
	if op.Kind == storage.OpRead {
		o.Tracer.HDDOp(op.Seek)
	}
}

// EndQuery finalizes the in-flight query: the trace is completed, the
// latency lands in the overall and per-situation histograms, and every
// SampleEvery queries one Sample stamped with simulated time now, the query
// count and the interval's mean latency joins the series.
func (o *Observer) EndQuery(now, elapsed time.Duration) QueryTrace {
	tr := o.Tracer.End(elapsed)
	if tr.Attrib != nil {
		sit := tr.Situation
		if sit == "" {
			sit = "uncached"
		}
		o.profile.Add(sit, tr.ElapsedNS, *tr.Attrib)
	}

	o.mu.Lock()
	slot := numSituations
	if o.curSitSeen && int(o.curSit) < numSituations {
		slot = int(o.curSit)
	}
	o.queries++
	o.sinceSample += elapsed
	var sampler func() Sample
	queries, interval := o.queries, o.sinceSample
	if o.queries%o.sampleEvery == 0 {
		sampler = o.sampler
		o.sinceSample = 0
	}
	o.mu.Unlock()

	us := elapsed.Microseconds()
	o.latAll.Observe(us)
	o.latSit[slot].Observe(us)
	if sampler != nil {
		s := sampler()
		s.AtUS, s.Queries = now.Microseconds(), queries
		s.IntervalMeanUS = metrics.RoundUS(interval / time.Duration(o.sampleEvery))
		o.mu.Lock()
		o.series = append(o.series, s)
		o.mu.Unlock()
	}
	return tr
}

// CoalescedQuery synthesizes the complete trace of a singleflight
// follower: a query that arrived while an identical query was in flight
// and was served by the leader's result without executing. Its entire
// latency (leader completion minus follower arrival) is queue_wait, so the
// attribution contract Attrib.Sum() == ElapsedNS holds by construction.
// The trace opens and closes in one synchronous step because the Tracer
// holds at most one open trace and the shard's real queries own it between
// their own Begin/End. now is the sample timestamp and must be monotone
// per Observer — serving callers pass the shard clock's Now, not
// the arrival-timeline completion instant.
func (o *Observer) CoalescedQuery(qid uint64, start, wait, now time.Duration) QueryTrace {
	o.BeginQuery(qid, start)
	o.Tracer.AddTime(simclock.CompQueueWait, wait)
	o.Tracer.QueueWait()
	o.Tracer.SetSituation("coalesced")
	return o.EndQuery(now, wait)
}

// Queries returns the number of completed queries observed.
func (o *Observer) Queries() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.queries
}

// OverallLatency summarizes the all-queries latency histogram (µs).
func (o *Observer) OverallLatency() metrics.Summary { return o.latAll.Summary() }

// SituationLatency summarizes the latency histogram of one Table I
// situation (µs).
func (o *Observer) SituationLatency(sit core.Situation) metrics.Summary {
	if int(sit) < 0 || int(sit) >= numSituations {
		return o.latSit[numSituations].Summary()
	}
	return o.latSit[sit].Summary()
}

// Series returns a copy of the Samples taken so far, oldest first.
func (o *Observer) Series() []Sample {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]Sample(nil), o.series...)
}

// Latest returns the last Sample taken, or the zero Sample before the first.
func (o *Observer) Latest() Sample {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.series) == 0 {
		return Sample{}
	}
	return o.series[len(o.series)-1]
}

// Line renders s as one live progress line, with the cumulative latency
// quantiles of lat (µs, as OverallLatency returns them).
func (s Sample) Line(lat metrics.Summary) string {
	return fmt.Sprintf(
		"q=%d mean=%s p50=%s p95=%s p99=%s RC=%.3f IC=%.3f RIC=%.3f erases=%d WA=%.3f",
		s.Queries, metrics.FormatMS(float64(s.IntervalMeanUS)),
		metrics.FormatMS(lat.P50), metrics.FormatMS(lat.P95), metrics.FormatMS(lat.P99),
		s.RC, s.IC, s.RIC, s.SSDErases, s.SSDWriteAmp)
}
