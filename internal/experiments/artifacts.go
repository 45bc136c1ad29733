package experiments

// Shared-artifact cache.
//
// Sweep points that agree on a CollectionSpec — every setup of Fig 16 at
// one doc count, every policy of Fig 17, every experiment pinned to
// BaseDocs — used to re-synthesize the identical collection and index per
// point. The cache builds each distinct spec's index image once (guarded
// singleflight-style so concurrent points wanting the same spec block on
// one build) and stamps the shared image onto every system's private
// device. Whole points are shared the same way: the reference CBLRU point
// is a row of five experiments, and a point is a pure function of its
// config and the scale's warm-up and measured lengths. A full-scale suite
// touches well under ten distinct specs and a hundred distinct points, so
// the cache is deliberately unbounded; ResetArtifacts exists for tests and
// long-lived embedders.

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	hybrid "hybridstore"
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
var artifactPoints = make(map[string]func() (point, error))
var pointRequests, pointsMeasured atomic.Int64

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

// pointKey returns the point cache's key for cfg at sc: the warm-up and
// measured lengths and cfg's Go-syntax rendering, which holds every field
// of hybrid.Config and of the configs within it without listing them. It
// refuses (ok false) an observed or profiled scale, whose points must run
// to feed the observer, and a config holding a func, pointer or other
// reference at any depth, which would render as an address.
func (sc Scale) pointKey(cfg hybrid.Config) (key string, ok bool) {
	if sc.Obs != nil || sc.Profile != nil || holdsRef(reflect.ValueOf(cfg)) {
		return "", false
	}
	return fmt.Sprintf("%d+%d %#v", sc.WarmQueries, sc.MeasureQueries, cfg), true
}

// holdsRef reports whether v holds a non-nil func, pointer, map, slice,
// channel or interface, looking through structs and arrays.
func holdsRef(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if holdsRef(v.Field(i)) {
				return true
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if holdsRef(v.Index(i)) {
				return true
			}
		}
	case reflect.Func, reflect.Pointer, reflect.Map, reflect.Slice, reflect.Chan, reflect.Interface, reflect.UnsafePointer:
		return !v.IsNil()
	}
	return false
}

// ArtifactStats reports cache contents: distinct specs seen, index builds
// performed, and bytes of serialized index retained.
func ArtifactStats() (images int, builds int64, bytes int64) {
	artifactMu.Lock()
	defer artifactMu.Unlock()
	return len(artifactImages), artifactBuilds, artifactBytes
}

// PointStats reports how many sweep points were measured and how many were
// served from the point cache since the last ResetArtifacts.
func PointStats() (measured, reused int64) {
	measured = pointsMeasured.Load()
	return measured, pointRequests.Load() - measured
}

// ResetArtifacts drops every cached image and point.
func ResetArtifacts() {
	artifactMu.Lock()
	defer artifactMu.Unlock()
	clear(artifactImages)
	artifactBuilds = 0
	artifactBytes = 0
	clear(artifactPoints)
	pointRequests.Store(0)
	pointsMeasured.Store(0)
}
