package main

import (
	"fmt"
	"time"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/disksim"
	"hybridstore/internal/engine"
	"hybridstore/internal/flashsim"
	"hybridstore/internal/index"
	"hybridstore/internal/simclock"
	"hybridstore/internal/storage"
	"hybridstore/internal/workload"
)

// timedDevice brackets every call into a storage.Device with a span. It
// forwards results and errors untouched and never keeps the buffer.
type timedDevice struct {
	dev         storage.Device
	tr          *tracer
	read, write spanKind
}

func (d *timedDevice) Name() string { return d.dev.Name() }
func (d *timedDevice) Size() int64  { return d.dev.Size() }

func (d *timedDevice) ReadAt(p []byte, off int64) (time.Duration, error) {
	d.tr.begin(d.read)
	lat, err := d.dev.ReadAt(p, off)
	d.tr.end()
	return lat, err
}

func (d *timedDevice) WriteAt(p []byte, off int64) (time.Duration, error) {
	d.tr.begin(d.write)
	lat, err := d.dev.WriteAt(p, off)
	d.tr.end()
	return lat, err
}

// timedTrimDevice adds storage.Trimmer, which core.Manager discovers by
// type assertion on its cache device.
type timedTrimDevice struct {
	timedDevice
	trimmer storage.Trimmer
	trim    spanKind
}

func (d *timedTrimDevice) Trim(off, n int64) (time.Duration, error) {
	d.tr.begin(d.trim)
	lat, err := d.trimmer.Trim(off, n)
	d.tr.end()
	return lat, err
}

// timedLists brackets the engine's list reads into the cache manager. The
// metadata lookups are map reads; they are forwarded untimed and so count
// as engine time.
type timedLists struct {
	src engine.ListSource
	tr  *tracer
}

func (l *timedLists) ListBytes(t workload.TermID) int64             { return l.src.ListBytes(t) }
func (l *timedLists) TermDF(t workload.TermID) int64                { return l.src.TermDF(t) }
func (l *timedLists) Codec() index.CodecID                          { return l.src.Codec() }
func (l *timedLists) ListBlocks(t workload.TermID) []index.BlockRef { return l.src.ListBlocks(t) }
func (l *timedLists) NumDocs() int64                                { return l.src.NumDocs() }

func (l *timedLists) ReadListRange(t workload.TermID, off int64, p []byte) error {
	l.tr.begin(spanReadList)
	err := l.src.ReadListRange(t, off, p)
	l.tr.end()
	return err
}

// engineCounts is what engine.ExecStats adds up to over a window.
type engineCounts struct {
	executes        int64
	postings        int64
	listBytes       int64
	terms           int64
	termsTerminated int64
}

func (c *engineCounts) add(stats engine.ExecStats) {
	c.executes++
	c.postings += stats.PostingsScored
	c.listBytes += stats.BytesRead
	for _, ts := range stats.Terms {
		c.terms++
		if ts.Terminated {
			c.termsTerminated++
		}
	}
}

// tracedStack is the stack hybrid.New assembles for a two-level,
// index-on-HDD, page-mapped configuration, rebuilt here from the layers'
// public constructors with a timing decorator at every boundary. If its
// simulated totals ever differ from the timed pass's, this assembly has
// drifted from hybrid.New.
type tracedStack struct {
	clock    *simclock.Clock
	hdd      *disksim.HDD
	ssd      *flashsim.SSD
	ix       *index.Index
	mgr      *core.Manager
	eng      *engine.Engine
	tr       *tracer
	docBytes int
	stampNS  int64 // host time Image.Stamp took
	counts   engineCounts
}

// newTracedStack mirrors hybrid.New for a configuration that carries its
// prebuilt IndexImage.
func newTracedStack(cfg hybrid.Config, tr *tracer) (*tracedStack, error) {
	img := cfg.IndexImage
	if cfg.Mode != hybrid.CacheTwoLevel || cfg.IndexOn != hybrid.IndexOnHDD ||
		cfg.CacheFTL != hybrid.FTLPageMap || cfg.HeteroCacheTier || cfg.CacheFaults.Enabled() {
		return nil, fmt.Errorf("traced stack: only two-level, index-on-HDD, page-map, fault-free configurations are mirrored")
	}
	clock := simclock.New()
	s := &tracedStack{clock: clock, tr: tr}
	var err error

	s.hdd = disksim.New("hdd", clock, disksim.DefaultParams(img.Bytes()+(1<<20)))
	t0 := hostNS()
	s.ix, err = img.Stamp(&timedDevice{dev: s.hdd, tr: tr, read: spanHDDRead, write: spanHDDWrite})
	if err != nil {
		return nil, err
	}
	s.stampNS = hostNS() - t0

	engCfg := cfg.Engine
	engCfg.Clock = clock
	s.docBytes = engCfg.DocResultBytes
	if s.docBytes <= 0 {
		s.docBytes = 400
	}

	cacheCfg := cfg.Cache
	if cfg.UseModelPU {
		cacheCfg.PU = workload.NewUtilizationModel(cfg.Collection).PU
	}
	need := cacheCfg.SSDResultBytes + cacheCfg.SSDListBytes + (2 << 20)
	s.ssd = flashsim.New("cache-ssd", simclock.New(), flashsim.DefaultParams(need))
	cacheDev := &timedTrimDevice{
		timedDevice: timedDevice{dev: s.ssd, tr: tr, read: spanSSDRead, write: spanSSDWrite},
		trimmer:     s.ssd,
		trim:        spanSSDTrim,
	}
	s.mgr, err = core.New(clock, s.ix, cacheDev, cacheCfg)
	if err != nil {
		return nil, err
	}
	s.eng = engine.New(&timedLists{src: s.mgr, tr: tr}, engCfg)
	return s, nil
}

// search replays hybrid.System.search call for call, with a span around
// each call into a layer. BeginQuery, RecordUtilization and EndQuery are a
// few map operations each, less than a span costs to record, so they stay
// inside the root span and count as hybrid time.
func (s *tracedStack) search(q workload.Query) (*engine.Result, hybrid.SearchInfo, error) {
	tr, m := s.tr, s.mgr
	tr.begin(spanSearch)
	sw := simclock.StartStopwatch(s.clock)
	m.BeginQuery(q.ID)

	tr.begin(spanGetResult)
	data, src := m.GetResult(q.ID)
	tr.end()
	if src != core.ResultMiss {
		tr.begin(spanDecodeResult)
		res, err := engine.DecodeResult(data)
		tr.end()
		info := hybrid.SearchInfo{Cached: true, Source: src, Elapsed: sw.Elapsed()}
		m.EndQuery(info.Elapsed)
		tr.end()
		return res, info, err
	}

	tr.begin(spanExecute)
	res, stats, err := s.eng.Execute(q)
	tr.end()
	if err != nil {
		m.EndQuery(sw.Elapsed())
		tr.end()
		return nil, hybrid.SearchInfo{Elapsed: sw.Elapsed()}, err
	}
	for _, ts := range stats.Terms {
		m.RecordUtilization(ts.Term, ts.Utilization)
	}
	if tr.on {
		s.counts.add(stats)
	}

	tr.begin(spanEncodeResult)
	enc := res.Encode(s.docBytes)
	tr.end()
	tr.begin(spanPutResult)
	err = m.PutResult(q.ID, m.PadResult(enc))
	tr.end()
	if err != nil {
		m.EndQuery(sw.Elapsed())
		tr.end()
		return nil, hybrid.SearchInfo{Elapsed: sw.Elapsed()}, err
	}
	info := hybrid.SearchInfo{Elapsed: sw.Elapsed(), BytesRead: stats.BytesRead}
	m.EndQuery(info.Elapsed)
	tr.end()
	return res, info, nil
}

// assembleTraced builds the traced stack from cfg.IndexImage.
func assembleTraced(cfg hybrid.Config) (stack, error) {
	tr := &tracer{spans: make([]spanRecord, 0, 1<<16)}
	s, err := newTracedStack(cfg, tr)
	if err != nil {
		return stack{}, err
	}
	return stack{search: s.search, clock: s.clock, ssd: s.ssd, hdd: s.hdd, manager: s.mgr, traced: s}, nil
}
