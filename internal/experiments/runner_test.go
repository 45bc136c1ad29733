package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"hybridstore/internal/index"
	"hybridstore/internal/obs"
)

// TestParallelOutputIdentical is the determinism contract for the worker
// pool: running a sweep experiment with Jobs=1 and Jobs=8 must produce
// byte-identical output. It covers every sweep that measures through
// Scale.measure (zoo has its own check in zoo_test.go), with their
// different point shapes (size×component grid, doc×placement grid, policy
// list, two tables from one list, injected faults), and runs under -race
// in CI, so it also exercises the pool for data races.
func TestParallelOutputIdentical(t *testing.T) {
	ids := []string{"fig14a", "fig14b", "fig16", "fig17", "fig18", "ablate", "ftl", "dynamic", "faults"}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %q not registered", id)
			}
			serial := microScale()
			serial.Jobs = 1
			var want bytes.Buffer
			if err := e.Run(&want, serial); err != nil {
				t.Fatalf("serial run failed: %v", err)
			}

			parallel := microScale()
			parallel.Jobs = 8
			var got bytes.Buffer
			if err := e.Run(&got, parallel); err != nil {
				t.Fatalf("parallel run failed: %v", err)
			}

			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Fatalf("Jobs=1 and Jobs=8 output differ:\n--- serial ---\n%s\n--- parallel ---\n%s",
					want.String(), got.String())
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
