package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// spanKind names one layer boundary the traced pass times.
type spanKind uint8

const (
	spanSearch spanKind = iota
	spanGetResult
	spanDecodeResult
	spanExecute
	spanReadList
	spanEncodeResult
	spanPutResult
	spanSSDRead
	spanSSDWrite
	spanSSDTrim
	spanHDDRead
	spanHDDWrite
	numSpanKinds
)

// spanNames are "<layer>.<operation>"; the layer prefix is the module whose
// public function the span brackets.
var spanNames = [numSpanKinds]string{
	spanSearch:       "hybrid.search",
	spanGetResult:    "core.get_result",
	spanDecodeResult: "engine.decode_result",
	spanExecute:      "engine.execute",
	spanReadList:     "core.read_list",
	spanEncodeResult: "engine.encode_result",
	spanPutResult:    "core.put_result",
	spanSSDRead:      "flashsim.read",
	spanSSDWrite:     "flashsim.write",
	spanSSDTrim:      "flashsim.trim",
	spanHDDRead:      "disksim.read",
	spanHDDWrite:     "disksim.write",
}

// sampleStride: every sampleStride-th query's spans are kept for the
// spans.ndjson file; all queries feed the aggregates.
const sampleStride = 64

// maxSpanDepth bounds span nesting: search → execute → read_list → device.
const maxSpanDepth = 8

type frame struct {
	kind    spanKind
	id      int32
	startNS int64
	childNS int64
}

// spanRecord is one kept span. Parent is 0 for the root of a query.
type spanRecord struct {
	query   int
	id      int32
	parent  int32
	kind    spanKind
	startNS int64
	endNS   int64
}

// tracer records spans at the layer boundaries of one stack. Self times
// (duration minus child spans) and call counts are aggregated as spans end,
// so memory does not grow with the window; only sampled queries keep their
// individual spans. The clock is read last in begin and first in end, so a
// span covers the callee and the tracer's own bookkeeping falls to the
// parent. Not safe for concurrent use: the stream is one goroutine.
type tracer struct {
	on      bool
	keep    bool
	queries int // root spans begun
	nextID  int32
	depth   int
	stack   [maxSpanDepth]frame

	selfNS  [numSpanKinds]int64
	totalNS [numSpanKinds]int64
	calls   [numSpanKinds]int64
	spans   []spanRecord
}

func (t *tracer) begin(k spanKind) {
	if !t.on {
		return
	}
	if t.depth == 0 { // a root span opens the next query of the window
		t.keep = t.queries%sampleStride == 0
		t.queries++
		t.nextID = 0
	}
	t.nextID++
	f := &t.stack[t.depth]
	t.depth++
	f.kind, f.id, f.childNS = k, t.nextID, 0
	f.startNS = hostNS()
}

func (t *tracer) end() {
	if !t.on {
		return
	}
	now := hostNS()
	t.depth--
	f := &t.stack[t.depth]
	dur := now - f.startNS
	t.selfNS[f.kind] += dur - f.childNS
	t.totalNS[f.kind] += dur
	t.calls[f.kind]++
	var parent int32
	if t.depth > 0 {
		p := &t.stack[t.depth-1]
		p.childNS += dur
		parent = p.id
	}
	if t.keep {
		t.spans = append(t.spans, spanRecord{t.queries - 1, f.id, parent, f.kind, f.startNS, now})
	}
}

// layerSelfNS sums self time over the spans of one layer ("core", ...).
func (t *tracer) layerSelfNS(layer string) int64 {
	var ns int64
	for k, name := range spanNames {
		if strings.HasPrefix(name, layer+".") {
			ns += t.selfNS[k]
		}
	}
	return ns
}

// writeSpans writes the kept spans as NDJSON, one span per line in end
// order: {query, id, parent, name, start_ns, end_ns}.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"query":%d,"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.query, s.id, s.parent, spanNames[s.kind], s.startNS, s.endNS)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
