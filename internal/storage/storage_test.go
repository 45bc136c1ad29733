package storage

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"hybridstore/internal/simclock"
)

func TestOpKindString(t *testing.T) {
	cases := map[OpKind]string{OpRead: "read", OpWrite: "write", OpTrim: "trim", OpErase: "erase"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
	if got := OpKind(99).String(); got != "opkind(99)" {
		t.Errorf("unknown kind String() = %q", got)
	}
}

func TestCheckRange(t *testing.T) {
	if err := CheckRange("d", 100, 0, 100); err != nil {
		t.Errorf("full-range access rejected: %v", err)
	}
	for _, c := range []struct{ off, n int64 }{{-1, 1}, {0, 101}, {100, 1}, {50, -1}} {
		err := CheckRange("d", 100, c.off, int(c.n))
		if !errors.Is(err, ErrOutOfRange) {
			t.Errorf("CheckRange(%d,%d) = %v, want ErrOutOfRange", c.off, c.n, err)
		}
	}
}

func TestSparseBufferReadBack(t *testing.T) {
	b := NewSparseBuffer(1 << 20)
	data := []byte("hello, sparse world")
	b.WriteAt(data, 12345)
	got := make([]byte, len(data))
	b.ReadAt(got, 12345)
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %q, want %q", got, data)
	}
}

func TestSparseBufferZeroFill(t *testing.T) {
	b := NewSparseBuffer(1 << 20)
	got := make([]byte, 64)
	b.ReadAt(got, 500000)
	for _, v := range got {
		if v != 0 {
			t.Fatal("unwritten region not zero")
		}
	}
}

func TestSparseBufferCrossChunk(t *testing.T) {
	b := NewSparseBuffer(1 << 20)
	data := make([]byte, 300<<10) // spans three 128 KiB chunks
	for i := range data {
		data[i] = byte(i * 7)
	}
	off := int64(sparseChunkSize - 100)
	b.WriteAt(data, off)
	got := make([]byte, len(data))
	b.ReadAt(got, off)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-chunk read mismatch")
	}
}

// TestSparseBufferRoundTripProperty drives a buffer, with and without a base
// layer, through random reads and writes against a flat []byte model: partial
// and cross-chunk writes, writes of base sub-slices onto their own offset (the
// elided case) and onto other offsets, and writes past the end of the base.
// The base must come out of it untouched.
func TestSparseBufferRoundTripProperty(t *testing.T) {
	const size = 5*sparseChunkSize + 1234
	f := func(seed int64, withBase bool) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewSparseBuffer(size)
		model := make([]byte, size)
		var base []byte
		if withBase {
			// Ends mid-chunk, so one chunk is part base, part zeros.
			base = make([]byte, 3*sparseChunkSize+777)
			rng.Read(base)
			b.SetBase(base)
			copy(model, base)
		}
		baseCRC := crc32.ChecksumIEEE(base)
		// span picks a range inside [0, limit): half the time short (inside
		// one chunk, mostly), otherwise up to two chunks long.
		span := func(limit int) (off, n int) {
			maxLen := 300
			if rng.Intn(2) == 0 {
				maxLen = 2 * sparseChunkSize
			}
			n = 1 + rng.Intn(min(maxLen, limit))
			return rng.Intn(limit - n + 1), n
		}
		for op := 0; op < 60; op++ {
			switch k := rng.Intn(5); {
			case k == 0:
				off, n := span(size)
				got := make([]byte, n)
				b.ReadAt(got, int64(off))
				if !bytes.Equal(got, model[off:off+n]) {
					t.Logf("seed %d op %d: read [%d,+%d) differs from model", seed, op, off, n)
					return false
				}
			case k <= 2 && withBase:
				// Source is the base's own memory: onto itself, or elsewhere.
				off, n := span(len(base))
				dst := off
				if k == 2 {
					dst = rng.Intn(size - n + 1)
				}
				b.WriteAt(base[off:off+n], int64(dst))
				copy(model[dst:], base[off:off+n])
			default:
				off, n := span(size)
				data := make([]byte, n)
				rng.Read(data)
				b.WriteAt(data, int64(off))
				copy(model[off:], data)
			}
		}
		got := make([]byte, size)
		b.ReadAt(got, 0)
		if !bytes.Equal(got, model) {
			t.Logf("seed %d: final content differs from model", seed)
			return false
		}
		if crc32.ChecksumIEEE(base) != baseCRC {
			t.Logf("seed %d: base was written", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// A write whose source is the base range it targets must store nothing, or a
// device stamped from a shared image holds a private copy after all.
func TestSparseBufferBaseSelfWriteStoresNothing(t *testing.T) {
	base := bytes.Repeat([]byte{0xA5}, 2*sparseChunkSize+100)
	b := NewSparseBuffer(4 * sparseChunkSize)
	b.SetBase(base)
	b.WriteAt(base[10:], 10)
	if len(b.chunks) != 0 {
		t.Fatalf("writing the base onto itself materialized %d chunks", len(b.chunks))
	}
	b.WriteAt([]byte{1}, sparseChunkSize+5)
	if len(b.chunks) != 1 {
		t.Fatalf("one-byte write materialized %d chunks, want 1", len(b.chunks))
	}
	// Once a chunk shadows the base, the same self-write has to land in it.
	b.WriteAt(base[sparseChunkSize:2*sparseChunkSize], sparseChunkSize)
	got := make([]byte, 1)
	b.ReadAt(got, sparseChunkSize+5)
	if got[0] != 0xA5 {
		t.Fatalf("self-write over a shadowed chunk read back %#x, want 0xa5", got[0])
	}
}

func TestSparseBufferSetBaseMisusePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"after write":    func() { b := NewSparseBuffer(100); b.WriteAt([]byte{1}, 0); b.SetBase(make([]byte, 10)) },
		"second base":    func() { b := NewSparseBuffer(100); b.SetBase(make([]byte, 10)); b.SetBase(make([]byte, 10)) },
		"base too large": func() { NewSparseBuffer(100).SetBase(make([]byte, 101)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetBase %s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestMemDeviceReadWrite(t *testing.T) {
	clk := simclock.New()
	d := NewMemDevice("mem", 1<<20, clk, DefaultMemParams())
	data := []byte("abcdef")
	wlat, err := d.WriteAt(data, 100)
	if err != nil {
		t.Fatal(err)
	}
	if wlat <= 0 {
		t.Fatal("write latency not positive")
	}
	got := make([]byte, len(data))
	rlat, err := d.ReadAt(got, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %q", got)
	}
	if clk.Now() != wlat+rlat {
		t.Fatalf("clock %v != %v", clk.Now(), wlat+rlat)
	}
}

func TestMemDeviceOutOfRange(t *testing.T) {
	d := NewMemDevice("mem", 100, simclock.New(), DefaultMemParams())
	if _, err := d.ReadAt(make([]byte, 10), 95); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v", err)
	}
	if _, err := d.WriteAt(make([]byte, 10), 95); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v", err)
	}
}

func TestMemDeviceStatsAndHook(t *testing.T) {
	d := NewMemDevice("mem", 1<<20, simclock.New(), DefaultMemParams())
	var ops []Op
	d.SetOpHook(func(op Op) { ops = append(ops, op) })
	d.WriteAt(make([]byte, 10), 0)
	d.ReadAt(make([]byte, 5), 0)
	s := d.Stats()
	if s.Reads != 1 || s.Writes != 1 || s.BytesRead != 5 || s.BytesWrit != 10 {
		t.Fatalf("stats wrong: %+v", s)
	}
	if s.Operations != 2 || s.TotalTime <= 0 {
		t.Fatalf("totals wrong: %+v", s)
	}
	if len(ops) != 2 || ops[0].Kind != OpWrite || ops[1].Kind != OpRead {
		t.Fatalf("hook saw %+v", ops)
	}
	if s.AvgAccessTime() <= 0 {
		t.Fatal("AvgAccessTime not positive")
	}
}

func TestMemDeviceLatencyScalesWithSize(t *testing.T) {
	clk := simclock.New()
	d := NewMemDevice("mem", 1<<24, clk, DefaultMemParams())
	small, _ := d.ReadAt(make([]byte, 1), 0)
	large, _ := d.ReadAt(make([]byte, 1<<20), 0)
	if large <= small {
		t.Fatalf("1 MiB read (%v) not slower than 1 B read (%v)", large, small)
	}
}

func TestDeviceStatsAvgEmptyZero(t *testing.T) {
	var s DeviceStats
	if s.AvgAccessTime() != 0 {
		t.Fatal("empty stats avg != 0")
	}
}

func TestAllocatorFirstFit(t *testing.T) {
	a := NewAllocator(1000)
	off1, ok := a.Alloc(100)
	if !ok || off1 != 0 {
		t.Fatalf("first alloc at %d ok=%v", off1, ok)
	}
	off2, ok := a.Alloc(200)
	if !ok || off2 != 100 {
		t.Fatalf("second alloc at %d ok=%v", off2, ok)
	}
	if a.FreeBytes() != 700 {
		t.Fatalf("FreeBytes = %d", a.FreeBytes())
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	a := NewAllocator(100)
	if _, ok := a.Alloc(101); ok {
		t.Fatal("oversized alloc succeeded")
	}
	a.Alloc(100)
	if _, ok := a.Alloc(1); ok {
		t.Fatal("alloc from empty pool succeeded")
	}
}

func TestAllocatorFreeCoalesces(t *testing.T) {
	a := NewAllocator(300)
	o1, _ := a.Alloc(100)
	o2, _ := a.Alloc(100)
	o3, _ := a.Alloc(100)
	a.Free(o1, 100)
	a.Free(o3, 100)
	if a.FragmentCount() != 2 {
		t.Fatalf("fragments = %d, want 2", a.FragmentCount())
	}
	a.Free(o2, 100)
	if a.FragmentCount() != 1 {
		t.Fatalf("fragments after middle free = %d, want 1", a.FragmentCount())
	}
	if a.LargestFree() != 300 {
		t.Fatalf("LargestFree = %d", a.LargestFree())
	}
}

func TestAllocatorDoubleFreePanics(t *testing.T) {
	a := NewAllocator(100)
	off, _ := a.Alloc(50)
	a.Free(off, 50)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.Free(off, 50)
}

func TestAllocatorAligned(t *testing.T) {
	a := NewAllocator(10000)
	a.Alloc(100) // misalign the free pool
	off, ok := a.AllocAligned(256, 512)
	if !ok {
		t.Fatal("aligned alloc failed")
	}
	if off%512 != 0 {
		t.Fatalf("offset %d not 512-aligned", off)
	}
	// The padding before the aligned extent stays allocatable.
	padOff, ok := a.Alloc(10)
	if !ok || padOff != 100 {
		t.Fatalf("padding alloc at %d ok=%v, want 100", padOff, ok)
	}
}

func TestAllocatorFragmentationBlocksLargeAlloc(t *testing.T) {
	a := NewAllocator(300)
	o1, _ := a.Alloc(100)
	_, _ = a.Alloc(100)
	o3, _ := a.Alloc(100)
	a.Free(o1, 100)
	a.Free(o3, 100)
	if a.FreeBytes() != 200 {
		t.Fatalf("FreeBytes = %d", a.FreeBytes())
	}
	if _, ok := a.Alloc(150); ok {
		t.Fatal("allocation across fragments should fail")
	}
}

func TestAllocatorProperty(t *testing.T) {
	// Property: after any sequence of allocs and frees, FreeBytes plus the
	// sum of live extents equals the managed size.
	f := func(ops []uint16) bool {
		const size = 1 << 16
		a := NewAllocator(size)
		type ext struct{ off, n int64 }
		var live []ext
		var liveBytes int64
		for _, raw := range ops {
			if raw%2 == 0 || len(live) == 0 {
				n := int64(raw%1024) + 1
				if off, ok := a.Alloc(n); ok {
					live = append(live, ext{off, n})
					liveBytes += n
				}
			} else {
				i := int(raw) % len(live)
				a.Free(live[i].off, live[i].n)
				liveBytes -= live[i].n
				live = append(live[:i], live[i+1:]...)
			}
		}
		return a.FreeBytes()+liveBytes == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMemParamsDefaults(t *testing.T) {
	clk := simclock.New()
	d := NewMemDevice("m", 1024, clk, MemParams{})
	lat, err := d.ReadAt(make([]byte, 1), 0)
	if err != nil || lat < 100*time.Nanosecond {
		t.Fatalf("defaulted device lat=%v err=%v", lat, err)
	}
}
