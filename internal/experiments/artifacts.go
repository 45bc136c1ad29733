package experiments

// Shared-artifact cache.
//
// Sweep points that agree on a CollectionSpec — every setup of Fig 16 at
// one doc count, every policy of Fig 17, every experiment pinned to
// BaseDocs — used to re-synthesize the identical collection and index per
// point. The cache builds each distinct spec's index image once (guarded
// singleflight-style so concurrent points wanting the same spec block on
// one build) and stamps the shared image onto every system's private
// device.
//
// Executions are shared the same way. What the engine reads and returns for
// a query depends only on the image, its TopK, ChunkBytes and
// TerminationFrac, and the query's terms, as long as its source serves the
// image's bytes. Every system build assembles replays the memo of its image
// and engine config (engine.Engine.UseMemo): each distinct execution is
// scored once, against the image itself, and every system re-issues its
// reads through its own caches and devices and checks their bytes against
// the image. A full-scale suite touches well under ten distinct specs and
// about 20 000 distinct executions of under 1 KiB each, so the cache is
// deliberately unbounded; ResetArtifacts exists for tests and long-lived
// embedders.

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"unsafe"

	"hybridstore/internal/engine"
	"hybridstore/internal/index"
	"hybridstore/internal/workload"
)

// imageKey identifies one cached artifact: images differ per codec as well
// as per collection.
type imageKey struct {
	spec  workload.CollectionSpec
	codec index.CodecID
}

var artifactMu sync.Mutex
var artifactImages = make(map[imageKey]func() (*index.Image, error))
var artifactBuilds int64
var artifactBytes int64
var artifactMemos = make(map[memoKey]func() (*memo, error))
var memoEntries, memoBytes, memoReplays atomic.Int64

// cached returns the value m holds under key, running build at most once
// per process no matter how many callers ask for it concurrently.
func cached[K comparable, V any](m map[K]func() (V, error), key K, build func() (V, error)) (V, error) {
	artifactMu.Lock()
	get, ok := m[key]
	if !ok {
		get = sync.OnceValues(build)
		m[key] = get
	}
	artifactMu.Unlock()
	return get()
}

// sharedImage returns the index image for (spec, codec), building it at
// most once per process no matter how many points request it concurrently.
func sharedImage(spec workload.CollectionSpec, codec index.CodecID) (*index.Image, error) {
	return cached(artifactImages, imageKey{spec: spec, codec: codec}, func() (*index.Image, error) {
		img, err := index.BuildImage(spec, codec)
		artifactMu.Lock()
		defer artifactMu.Unlock()
		artifactBuilds++
		if img != nil {
			artifactBytes += img.Bytes()
		}
		return img, err
	})
}

// memoKey identifies one execution memo: an image and the engine settings
// that change what Execute reads or returns.
type memoKey struct {
	image      imageKey
	topK       int
	chunkBytes int
	termFrac   float64
}

// memo is the engine.Memo of one memoKey. Its image answers ListRange, and
// its executions are keyed by the query's terms in processing order.
type memo struct {
	*index.Image
	execs   map[string]func() (*engine.Execution, error)
	engines sync.Pool // clockless engines over the image, for first sights
}

// sharedMemo returns the memo of img under the engine settings of cfg,
// creating it on first request.
func sharedMemo(img *index.Image, cfg engine.Config) *memo {
	key := memoKey{imageKey{img.Spec(), img.Codec()}, cfg.TopK, cfg.ChunkBytes, cfg.TerminationFrac}
	m, _ := cached(artifactMemos, key, func() (*memo, error) {
		cfg.Clock = nil
		m := &memo{Image: img, execs: make(map[string]func() (*engine.Execution, error))}
		m.engines.New = func() any { return engine.New(img, cfg) }
		return m, nil
	})
	return m
}

// Recall implements engine.Memo. The first request for terms runs the
// engine over the image, never through a system's cache, so a fault or a
// cache bug in one system cannot reach what the others replay; concurrent
// requests for it wait on that one run. A replay of a recorded execution
// allocates nothing: its key is built on the stack and looked up without a
// string copy.
func (m *memo) Recall(terms []workload.TermID) (*engine.Execution, error) {
	memoReplays.Add(1)
	var buf [64]byte // the key of up to 16 terms; a longer query's grows on the heap
	key := buf[:0]
	for _, t := range terms {
		key = binary.LittleEndian.AppendUint32(key, uint32(t))
	}
	artifactMu.Lock()
	get, ok := m.execs[string(key)]
	artifactMu.Unlock()
	if ok {
		return get()
	}
	return cached(m.execs, string(key), func() (*engine.Execution, error) {
		e := m.engines.Get().(*engine.Engine)
		defer m.engines.Put(e)
		x, err := e.Record(terms)
		if err == nil {
			memoEntries.Add(1)
			memoBytes.Add(4*int64(len(terms)) + execBytes(x))
		}
		return x, err
	})
}

// execBytes is the memory one execution holds: the record and its three
// slices.
func execBytes(x *engine.Execution) int64 {
	return int64(unsafe.Sizeof(*x)) +
		int64(len(x.Docs))*int64(unsafe.Sizeof(engine.ScoredDoc{})) +
		int64(len(x.Stats.Terms))*int64(unsafe.Sizeof(engine.TermStats{})) +
		int64(len(x.Chunks))*int64(unsafe.Sizeof(engine.Chunk{}))
}

// ArtifactStats reports cache contents: distinct specs seen, index builds
// performed, and bytes of serialized index retained.
func ArtifactStats() (images int, builds int64, bytes int64) {
	artifactMu.Lock()
	defer artifactMu.Unlock()
	return len(artifactImages), artifactBuilds, artifactBytes
}

// MemoStats reports the execution memos since the last ResetArtifacts:
// executions recorded (one per distinct key), the bytes they hold, and
// executions replayed, first sights included.
func MemoStats() (entries, bytes, replays int64) {
	return memoEntries.Load(), memoBytes.Load(), memoReplays.Load()
}

// ResetArtifacts drops every cached image and execution memo.
func ResetArtifacts() {
	artifactMu.Lock()
	defer artifactMu.Unlock()
	clear(artifactImages)
	artifactBuilds = 0
	artifactBytes = 0
	clear(artifactMemos)
	memoEntries.Store(0)
	memoBytes.Store(0)
	memoReplays.Store(0)
}
