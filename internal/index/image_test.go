package index

import (
	"bytes"
	"hash/crc32"
	"runtime"
	"slices"
	"strings"
	"testing"

	"hybridstore/internal/disksim"
	"hybridstore/internal/simclock"
	"hybridstore/internal/storage"
	"hybridstore/internal/workload"
)

// TestStampMatchesBuild is the contract the artifact cache rests on: a
// device stamped from an image must be indistinguishable from one Build
// wrote directly — identical bytes AND an identical simulated operation
// history (write count, byte count, accumulated latency), so cached and
// uncached experiment points replay the exact same timeline.
func TestStampMatchesBuild(t *testing.T) {
	spec := testSpec()
	size := RequiredBytes(spec) + 4096

	devBuild := storage.NewMemDevice("idx", size, simclock.New(), storage.DefaultMemParams())
	ixBuild, err := Build(devBuild, spec)
	if err != nil {
		t.Fatal(err)
	}

	img, err := BuildImage(spec, CodecRaw)
	if err != nil {
		t.Fatal(err)
	}
	devStamp := storage.NewMemDevice("idx", size, simclock.New(), storage.DefaultMemParams())
	ixStamp, err := img.Stamp(devStamp)
	if err != nil {
		t.Fatal(err)
	}

	sb, ss := devBuild.Stats(), devStamp.Stats()
	if sb.Writes != ss.Writes || sb.BytesWrit != ss.BytesWrit || sb.WriteTime != ss.WriteTime {
		t.Fatalf("write history differs: Build {ops %d, bytes %d, time %v}, Stamp {ops %d, bytes %d, time %v}",
			sb.Writes, sb.BytesWrit, sb.WriteTime, ss.Writes, ss.BytesWrit, ss.WriteTime)
	}

	want := make([]byte, img.Bytes())
	got := make([]byte, img.Bytes())
	if _, err := devBuild.ReadAt(want, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := devStamp.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("stamped device content differs from built device content")
	}

	if ixBuild.NumDocs() != ixStamp.NumDocs() || ixBuild.NumTerms() != ixStamp.NumTerms() {
		t.Fatalf("index metadata differs: build (%d docs, %d terms), stamp (%d docs, %d terms)",
			ixBuild.NumDocs(), ixBuild.NumTerms(), ixStamp.NumDocs(), ixStamp.NumTerms())
	}

	// The simulated HDD adopts the image's bytes instead of copying them.
	// Hidden behind a wrapper it cannot, and takes the copying path; the two
	// drives must be indistinguishable from the outside.
	imgCRC := crc32.ChecksumIEEE(img.data)
	type stamped struct {
		hdd   *disksim.HDD
		clock *simclock.Clock
		ops   []storage.Op
	}
	stamp := func(adopt bool) *stamped {
		s := &stamped{clock: simclock.New()}
		s.hdd = disksim.New("hdd", s.clock, disksim.DefaultParams(size))
		s.hdd.SetOpHook(func(op storage.Op) { s.ops = append(s.ops, op) })
		var dev storage.Device = s.hdd
		if !adopt {
			dev = struct{ storage.Device }{s.hdd} // only Device's methods: no AdoptBase
		}
		if _, err := img.Stamp(dev); err != nil {
			t.Fatal(err)
		}
		return s
	}
	adopted, copied := stamp(true), stamp(false)
	sameOutside := func(when string) {
		t.Helper()
		if a, c := adopted.hdd.Stats(), copied.hdd.Stats(); a != c {
			t.Fatalf("%s: stats differ: adopted %+v, copied %+v", when, a, c)
		}
		if a, c := adopted.hdd.SequentialHits(), copied.hdd.SequentialHits(); a != c {
			t.Fatalf("%s: sequential hits differ: adopted %d, copied %d", when, a, c)
		}
		if a, c := adopted.clock.Now(), copied.clock.Now(); a != c {
			t.Fatalf("%s: clocks differ: adopted %v, copied %v", when, a, c)
		}
		if !slices.Equal(adopted.ops, copied.ops) {
			t.Fatalf("%s: op-hook event sequences differ (%d vs %d events)", when, len(adopted.ops), len(copied.ops))
		}
	}
	readAll := func(s *stamped) []byte {
		t.Helper()
		buf := make([]byte, size)
		if _, err := s.hdd.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	sameOutside("after stamp")
	if len(adopted.ops) < 3 {
		t.Fatalf("stamp issued %d writes; the hook saw too little to compare", len(adopted.ops))
	}
	onDisk := append(bytes.Clone(img.data), make([]byte, size-img.Bytes())...)
	if !bytes.Equal(readAll(adopted), onDisk) || !bytes.Equal(readAll(copied), onDisk) {
		t.Fatal("stamped drives do not read back the image followed by zeros")
	}

	// Each drive's later writes are its own: a write to the adopting drive
	// shows neither on a second drive sharing the image nor in the image.
	sibling := stamp(true)
	patch := bytes.Repeat([]byte{0xEE}, 300)
	patchOff := img.headLen + 17
	for _, s := range []*stamped{adopted, copied} {
		if _, err := s.hdd.WriteAt(patch, patchOff); err != nil {
			t.Fatal(err)
		}
	}
	sameOutside("after overwrite")
	copy(onDisk[patchOff:], patch)
	if !bytes.Equal(readAll(adopted), onDisk) || !bytes.Equal(readAll(copied), onDisk) {
		t.Fatal("overwritten drives do not read back the image with the patch applied")
	}
	if !bytes.Equal(readAll(sibling)[:img.Bytes()], img.data) {
		t.Fatal("a write to one adopting drive shows through a second drive sharing the image")
	}
	if crc32.ChecksumIEEE(img.data) != imgCRC {
		t.Fatal("the image's bytes were written")
	}
}

// TestStampOntoHDDDoesNotCopy keeps the host-side copy of the index from
// coming back: stamping onto the simulated HDD shares the image's bytes, so
// it may allocate only bookkeeping, not a fraction of the image.
func TestStampOntoHDDDoesNotCopy(t *testing.T) {
	spec := workload.DefaultCollection(200_000)
	spec.VocabSize = 1000 // 2.6 MB image: 1 % is well clear of the runtime's own background allocation
	img, err := BuildImage(spec, CodecRaw)
	if err != nil {
		t.Fatal(err)
	}
	hdd := disksim.New("hdd", simclock.New(), disksim.DefaultParams(img.Bytes()+(1<<20)))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := img.Stamp(hdd); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(img.Bytes()/100); got >= limit {
		t.Fatalf("Stamp allocated %d bytes for a %d-byte image, want < %d (1 %%)", got, img.Bytes(), limit)
	}
}

func TestImageBytesMatchesRequired(t *testing.T) {
	spec := testSpec()
	img, err := BuildImage(spec, CodecRaw)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bytes() != RequiredBytes(spec) {
		t.Fatalf("image is %d bytes, RequiredBytes says %d", img.Bytes(), RequiredBytes(spec))
	}
	if img.Spec() != spec {
		t.Fatalf("Spec() = %+v, want %+v", img.Spec(), spec)
	}
}

func TestStampDeviceTooSmall(t *testing.T) {
	spec := testSpec()
	img, err := BuildImage(spec, CodecRaw)
	if err != nil {
		t.Fatal(err)
	}
	dev := storage.NewMemDevice("tiny", img.Bytes()/2, simclock.New(), storage.DefaultMemParams())
	if _, err := img.Stamp(dev); err == nil || !strings.Contains(err.Error(), "needs") {
		t.Fatalf("expected capacity error, got %v", err)
	}
}

func TestBuildImageRejectsInvalidSpec(t *testing.T) {
	spec := testSpec()
	spec.NumDocs = 0
	if _, err := BuildImage(spec, CodecRaw); err == nil {
		t.Fatal("expected validation error for zero-doc spec")
	}
}

// TestImageGoldenCRC pins the serialized image, byte for byte, for each
// codec on one small fixed collection. The on-device layout is what every
// simulated number is computed from, so a change that moves it must say so
// here; the values were computed before BuildImage's sort changed library.
func TestImageGoldenCRC(t *testing.T) {
	for _, c := range []struct {
		codec CodecID
		bytes int64
		crc   uint32
	}{
		{CodecRaw, 194436, 0xf71b0e70},
		{CodecGVarint, 111929, 0x34c0fbcc},
	} {
		img, err := BuildImage(testSpec(), c.codec)
		if err != nil {
			t.Fatal(err)
		}
		if got := crc32.ChecksumIEEE(img.data); img.Bytes() != c.bytes || got != c.crc {
			t.Errorf("%s image: %d bytes, CRC-32 %#08x; golden %d bytes, %#08x",
				c.codec, img.Bytes(), got, c.bytes, c.crc)
		}
	}
}

// BenchmarkStampHDD measures the host cost of giving one more system its
// index: a fresh simulated HDD stamped from the shared SmallScale image
// (600 k docs, 17.5 MiB). Run with -benchmem: B/op is the memory a system
// adds on top of the image.
func BenchmarkStampHDD(b *testing.B) {
	spec := workload.DefaultCollection(600_000)
	spec.VocabSize = 2500
	spec.MaxDFShare = 0.2
	img, err := BuildImage(spec, CodecRaw)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hdd := disksim.New("hdd", simclock.New(), disksim.DefaultParams(img.Bytes()+(1<<20)))
		if _, err := img.Stamp(hdd); err != nil {
			b.Fatal(err)
		}
	}
}
