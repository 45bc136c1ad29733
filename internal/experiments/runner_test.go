package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/index"
	"hybridstore/internal/obs"
	"hybridstore/internal/simclock"
	"hybridstore/internal/workload"
)

// resetPoints empties the point cache and its counters, keeping the
// images.
func resetPoints() {
	artifactMu.Lock()
	defer artifactMu.Unlock()
	clear(artifactPoints)
	pointRequests.Store(0)
	pointsMeasured.Store(0)
}

// renderFresh renders experiment id at sc over an empty point cache and
// fails unless the run measured every point it asked for: a comparison
// of two runs, one replaying the other's points, would check nothing.
func renderFresh(t *testing.T, id string, sc Scale) string {
	t.Helper()
	resetPoints()
	out := render(t, id, sc)
	if measured, reused := PointStats(); reused != 0 {
		t.Fatalf("%s at jobs=%d measured %d points and reused %d from the cache", id, sc.Jobs, measured, reused)
	}
	return out
}

// TestParallelOutputIdentical is the determinism contract for the worker
// pool: running a sweep experiment with Jobs=1 and Jobs=8 must produce
// byte-identical output, each run measuring every point afresh. It covers
// every sweep that measures through Scale.measure (zoo has its own check
// in zoo_test.go), with their different point shapes (size×component
// grid, doc×placement grid, policy list, two tables from one list,
// injected faults), and runs under -race in CI, so it also exercises the
// pool for data races.
func TestParallelOutputIdentical(t *testing.T) {
	ids := []string{"fig14a", "fig14b", "fig16", "fig17", "fig18", "ablate", "ftl", "dynamic", "faults"}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			serial := microScale()
			serial.Jobs = 1
			want := renderFresh(t, id, serial)
			parallel := microScale()
			parallel.Jobs = 8
			if got := renderFresh(t, id, parallel); got != want {
				t.Fatalf("Jobs=1 and Jobs=8 output differ:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
			}
		})
	}
}

func TestForPointsRunsEveryPoint(t *testing.T) {
	for _, jobs := range []int{0, 1, 3, 16} {
		sc := Scale{Jobs: jobs}
		const n = 23
		var hits [n]atomic.Int32
		if err := sc.forPoints(n, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("jobs=%d: point %d ran %d times", jobs, i, got)
			}
		}
	}
}

// TestForPointsErrorDeterministic checks the error contract: every point
// still runs, and the reported error is the lowest-numbered failure no
// matter how the pool schedules the points.
func TestForPointsErrorDeterministic(t *testing.T) {
	sc := Scale{Jobs: 8}
	const n = 12
	wantErr := errors.New("point 3 failed")
	var ran atomic.Int32
	err := sc.forPoints(n, func(i int) error {
		ran.Add(1)
		switch i {
		case 3:
			return wantErr
		case 7, 11:
			return fmt.Errorf("point %d failed", i)
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("got error %v, want lowest-index error %v", err, wantErr)
	}
	if got := ran.Load(); got != n {
		t.Fatalf("only %d of %d points ran after failure", got, n)
	}
}

// TestForPointsSerialStopsOnError: the serial fast path keeps the
// pre-refactor behavior of stopping at the first failure.
func TestForPointsSerialStopsOnError(t *testing.T) {
	sc := Scale{Jobs: 1}
	var ran int
	err := sc.forPoints(10, func(i int) error {
		ran++
		if i == 2 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if ran != 3 {
		t.Fatalf("serial path ran %d points after failure, want 3", ran)
	}
}

// TestObserverForcesSerial: the tracer assumes one query in flight, so an
// attached Observer must drop the effective worker count to 1.
func TestObserverForcesSerial(t *testing.T) {
	sc := microScale()
	sc.Jobs = 8
	if got := sc.jobs(); got != 8 {
		t.Fatalf("jobs() = %d without observer, want 8", got)
	}
	sc.Obs = obs.New(obs.Options{})
	if got := sc.jobs(); got != 1 {
		t.Fatalf("jobs() = %d with observer attached, want 1", got)
	}
}

// TestSharedImageCaching: repeated requests for one spec build once;
// distinct specs build separately; ResetArtifacts clears the cache.
func TestSharedImageCaching(t *testing.T) {
	ResetArtifacts()
	defer ResetArtifacts()

	sc := microScale()
	specA := sc.collection(sc.BaseDocs)
	specB := sc.collection(sc.BaseDocs / 2)

	imgA1, err := sharedImage(specA, index.CodecRaw)
	if err != nil {
		t.Fatal(err)
	}
	imgA2, err := sharedImage(specA, index.CodecRaw)
	if err != nil {
		t.Fatal(err)
	}
	if imgA1 != imgA2 {
		t.Fatal("same spec returned distinct images")
	}
	if _, err := sharedImage(specB, index.CodecRaw); err != nil {
		t.Fatal(err)
	}
	// Same spec under a different codec is a distinct artifact.
	imgAGV, err := sharedImage(specA, index.CodecGVarint)
	if err != nil {
		t.Fatal(err)
	}
	if imgAGV == imgA1 {
		t.Fatal("distinct codecs returned one image")
	}

	images, builds, bytes := ArtifactStats()
	if images != 3 || builds != 3 {
		t.Fatalf("got %d images / %d builds, want 3 / 3", images, builds)
	}
	if bytes < imgA1.Bytes() {
		t.Fatalf("retained bytes %d below single image size %d", bytes, imgA1.Bytes())
	}

	ResetArtifacts()
	if images, builds, bytes := ArtifactStats(); images != 0 || builds != 0 || bytes != 0 {
		t.Fatalf("reset left %d images / %d builds / %d bytes", images, builds, bytes)
	}
}

// TestSharedImageConcurrent hammers one spec from many goroutines; the
// singleflight guard must produce exactly one build.
func TestSharedImageConcurrent(t *testing.T) {
	ResetArtifacts()
	defer ResetArtifacts()

	sc := microScale()
	spec := sc.collection(sc.BaseDocs)
	sc.Jobs = 16
	err := sc.forPoints(32, func(i int) error {
		_, err := sharedImage(spec, index.CodecRaw)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if images, builds, _ := ArtifactStats(); images != 1 || builds != 1 {
		t.Fatalf("got %d images / %d builds, want 1 / 1", images, builds)
	}
}

// refConfig is the reference CBLRU point at sc: a row of fig14b, fig17,
// ablate, ftl and dynamic.
func refConfig(sc Scale) hybrid.Config {
	return sc.config(sc.BaseDocs, hybrid.CacheTwoLevel, hybrid.IndexOnHDD, sc.cacheConfig(core.PolicyCBLRU))
}

// isCached reports whether the point cache holds cfg at sc.
func isCached(t *testing.T, sc Scale, cfg hybrid.Config) bool {
	t.Helper()
	key, ok := sc.pointKey(cfg)
	if !ok {
		t.Fatal("reference config refused by the point cache")
	}
	artifactMu.Lock()
	defer artifactMu.Unlock()
	return artifactPoints[key] != nil
}

// TestSharedPointCaching: fig17 then ablate measure the points they share
// (the LRU, CBLRU and CBSLRU references at BaseDocs) once, and each renders
// the bytes it renders over an empty cache. ResetArtifacts empties the
// cache.
func TestSharedPointCaching(t *testing.T) {
	ResetArtifacts()
	defer ResetArtifacts()
	sc := microScale()
	sc.Jobs = 2

	fig17 := render(t, "fig17", sc)
	if !isCached(t, sc, refConfig(sc)) {
		t.Fatal("fig17 left no cached reference point")
	}
	if measured, reused := PointStats(); measured != 6 || reused != 0 {
		t.Fatalf("fig17 over an empty cache: %d measured / %d reused, want 6 / 0", measured, reused)
	}
	ablate := render(t, "ablate", sc)
	if measured, reused := PointStats(); measured != 12 || reused != 3 {
		t.Fatalf("fig17 then ablate: %d measured / %d reused, want 12 / 3", measured, reused)
	}

	ResetArtifacts()
	if got := renderFresh(t, "ablate", sc); got != ablate {
		t.Fatalf("ablate over fig17's points differs from a fresh run:\n--- reused\n%s\n--- fresh\n%s", ablate, got)
	}
	// ablate's points now stand in for fig17's shared rows.
	if got := render(t, "fig17", sc); got != fig17 {
		t.Fatalf("fig17 over ablate's points differs from a fresh run:\n--- fresh\n%s\n--- reused\n%s", fig17, got)
	}
	if _, reused := PointStats(); reused != 3 {
		t.Fatalf("fig17 over ablate's points reused %d, want 3", reused)
	}

	ResetArtifacts()
	if measured, reused := PointStats(); measured != 0 || reused != 0 || isCached(t, sc, refConfig(sc)) {
		t.Fatalf("reset left %d measured / %d reused or a cached point", measured, reused)
	}
}

// TestSharedPointConcurrent: 32 requests for one config on 16 workers
// measure it once and all see the same point.
func TestSharedPointConcurrent(t *testing.T) {
	ResetArtifacts()
	defer ResetArtifacts()
	sc := microScale()
	sc.Jobs = 16
	cfgs := make([]hybrid.Config, 32)
	for i := range cfgs {
		cfgs[i] = refConfig(sc)
	}
	pts, err := sc.measure(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if measured, reused := PointStats(); measured != 1 || reused != 31 {
		t.Fatalf("got %d measured / %d reused, want 1 / 31", measured, reused)
	}
	for i, p := range pts {
		if p != pts[0] {
			t.Fatalf("request %d got a different point", i)
		}
	}
}

// TestObservedScaleMeasuresEveryPoint: a traced or profiled scale must run
// every point to feed its observer, so nothing is cached or reused.
func TestObservedScaleMeasuresEveryPoint(t *testing.T) {
	ResetArtifacts()
	defer ResetArtifacts()
	traced, profiled := microScale(), microScale()
	traced.Obs = obs.New(obs.Options{})
	profiled.Profile = obs.NewProfile()
	for _, sc := range []Scale{traced, profiled} {
		render(t, "fig17", sc)
		render(t, "fig17", sc)
	}
	if measured, reused := PointStats(); measured != 24 || reused != 0 {
		t.Fatalf("observed runs: %d measured / %d reused, want 24 / 0", measured, reused)
	}
	if len(artifactPoints) != 0 {
		t.Fatalf("observed runs cached %d points", len(artifactPoints))
	}
}

// TestPointKeyCoversEveryField: the key is the config's Go-syntax
// rendering, so changing any value field of hybrid.Config, at any depth,
// changes the key, and setting any reference field (Cache.PU,
// Engine.Clock, IndexImage, or one added later) makes the point
// uncacheable, so the key never holds an address.
func TestPointKeyCoversEveryField(t *testing.T) {
	sc := microScale()
	base := refConfig(sc)
	baseKey, ok := sc.pointKey(base)
	if !ok {
		t.Fatal("reference config refused")
	}
	longer := sc
	longer.MeasureQueries++
	if k, _ := longer.pointKey(base); k == baseKey {
		t.Fatal("MeasureQueries is not in the key")
	}
	longer = sc
	longer.WarmQueries++
	if k, _ := longer.pointKey(base); k == baseKey {
		t.Fatal("WarmQueries is not in the key")
	}

	cfg := base
	leaves := 0
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
			return
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
			return
		}
		if !v.CanSet() {
			t.Fatalf("%s is unexported: teach this test to change it", path)
		}
		leaves++
		saved := reflect.New(v.Type()).Elem()
		saved.Set(v)
		defer v.Set(saved)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float32, reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Func:
			v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value { return nil }))
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		case reflect.Map:
			v.Set(reflect.MakeMap(v.Type()))
		default:
			t.Fatalf("%s: teach this test to change a %s", path, v.Kind())
		}
		key, ok := sc.pointKey(cfg)
		switch v.Kind() {
		case reflect.Func, reflect.Pointer, reflect.Slice, reflect.Map:
			if ok {
				t.Fatalf("%s set: the point is still cached under %s", path, key)
			}
		default:
			if !ok || key == baseKey {
				t.Fatalf("changing %s leaves the key unchanged", path)
			}
		}
	}
	walk("Config", reflect.ValueOf(&cfg).Elem())
	if k, _ := sc.pointKey(cfg); k != baseKey {
		t.Fatal("walk did not restore the config")
	}
	if leaves < 40 {
		t.Fatalf("walked %d fields of hybrid.Config, want every one", leaves)
	}

	// The three reference fields set today by callers.
	for name, set := range map[string]func(*hybrid.Config){
		"Cache.PU":     func(c *hybrid.Config) { c.Cache.PU = func(workload.TermID) float64 { return 1 } },
		"Engine.Clock": func(c *hybrid.Config) { c.Engine.Clock = simclock.New() },
		"IndexImage":   func(c *hybrid.Config) { c.IndexImage = &index.Image{} },
	} {
		c := base
		set(&c)
		if _, ok := sc.pointKey(c); ok {
			t.Fatalf("a config with %s set is cached", name)
		}
	}
}
