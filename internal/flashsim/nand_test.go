package flashsim

import (
	"bytes"
	"fmt"
	"testing"
)

func TestNANDProgramReadErase(t *testing.T) {
	n := newNANDArray(2<<10, 64, 4)
	page := make([]byte, 2<<10)
	for i := range page {
		page[i] = 0xAB
	}
	n.programPage(5, page)
	got := make([]byte, 2<<10)
	n.readAt(5, 0, got)
	if !bytes.Equal(got, page) {
		t.Fatal("program/read mismatch")
	}
	if n.blockValid[0] != 1 || n.blockFree[0] != 63 {
		t.Fatalf("block counters: valid=%d free=%d", n.blockValid[0], n.blockFree[0])
	}
	n.eraseBlock(0)
	if n.blockValid[0] != 0 || n.blockFree[0] != 64 || n.erases[0] != 1 {
		t.Fatal("erase did not reset block")
	}
	n.readAt(5, 0, got)
	for _, b := range got {
		if b != 0 {
			t.Fatal("erased page not zero")
		}
	}
}

func TestNANDProgramInPlacePanics(t *testing.T) {
	n := newNANDArray(2<<10, 64, 2)
	page := make([]byte, 2<<10)
	n.programPage(0, page)
	defer func() {
		if recover() == nil {
			t.Fatal("in-place program did not panic (NAND cannot overwrite)")
		}
	}()
	n.programPage(0, page)
}

func TestNANDInvalidate(t *testing.T) {
	n := newNANDArray(2<<10, 64, 2)
	page := make([]byte, 2<<10)
	n.programPage(0, page)
	n.invalidatePage(0)
	if n.blockValid[0] != 0 {
		t.Fatal("invalidate did not drop valid count")
	}
	n.invalidatePage(0) // idempotent
	if n.blockValid[0] != 0 {
		t.Fatal("double invalidate corrupted counters")
	}
}

func TestNANDWearSummary(t *testing.T) {
	n := newNANDArray(2<<10, 64, 3)
	n.eraseBlock(0)
	n.eraseBlock(0)
	n.eraseBlock(2)
	total, max := n.wearSummary()
	if total != 3 || max != 2 {
		t.Fatalf("wear: total=%d max=%d", total, max)
	}
	if n.totalErases != 3 {
		t.Fatalf("totalErases=%d", n.totalErases)
	}
}

func TestNANDGeometryValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero geometry accepted")
		}
	}()
	newNANDArray(0, 64, 4)
}

// TestNANDZeroPages: a page stores its bytes up to its last non-zero one, an
// all-zero page none, and a read clears what is not stored — in a
// destination, and from a pooled buffer whose old bytes are not zero. A
// relocation moves the buffer, or its absence, to the new page and leaves the
// old one invalid; an erase pools the buffers of the pages it frees.
func TestNANDZeroPages(t *testing.T) {
	const pageSize = 256
	n := newNANDArray(pageSize, 4, 2)
	fill := func(v byte) []byte { return bytes.Repeat([]byte{v}, pageSize) }
	head := func(v byte, k int) []byte { return append(fill(v)[:k], make([]byte, pageSize-k)...) }
	zeros := make([]byte, pageSize)
	check := func(phys int32, want []byte, stored int, what string) {
		t.Helper()
		got := fill(0xEE) // a read must overwrite every byte
		n.readAt(phys, 0, got)
		if !bytes.Equal(got, want) || len(n.data[phys]) != stored {
			t.Fatalf("%s: page %d reads %#x…%#x and stores %d bytes, want %#x…%#x and %d",
				what, phys, got[0], got[pageSize-1], len(n.data[phys]), want[0], want[pageSize-1], stored)
		}
	}

	// Tails are cut after the last non-zero byte, on and off the 64-byte steps.
	for _, k := range []int{1, 63, 64, 65, 200, 255, 256} {
		n.programPage(0, head(0x11, k))
		check(0, head(0x11, k), k, fmt.Sprintf("%d-byte head", k))
		n.eraseBlock(0)
	}
	withHole := head(0x22, 200)
	withHole[150] = 0 // a zero inside the stored bytes stays stored
	n.programPage(0, withHole)
	check(0, withHole, 200, "page with a zero inside")
	n.programPage(1, zeros)
	check(1, zeros, 0, "zero page")

	// A short page in the buffer of a full one, whose old bytes are stale.
	n.programPage(2, fill(0xAA))
	n.invalidatePage(2)
	if n.data[2] != nil || len(n.pool) != 1 {
		t.Fatalf("invalidated page keeps %d bytes, pool holds %d buffers: want 0, 1", len(n.data[2]), len(n.pool))
	}
	n.programPage(3, head(0x33, 100))
	check(3, head(0x33, 100), 100, "short page in a full page's buffer")
	part := fill(0xEE)[:50]
	n.readAt(3, 80, part) // straddles the end of the stored bytes
	if want := append(bytes.Repeat([]byte{0x33}, 20), make([]byte, 30)...); !bytes.Equal(part, want) {
		t.Fatalf("read at 80 of a 100-byte head: %x, want %x", part, want)
	}

	// Relocation moves the buffer: no bytes are copied.
	moved := &n.data[3][0]
	n.copyPage(3, 4)
	n.copyPage(1, 5)
	if n.data[4] == nil || &n.data[4][0] != moved || n.data[3] != nil || n.pageState[3] != pageInvalid {
		t.Fatal("relocation did not move the buffer and leave the source invalid")
	}
	check(4, head(0x33, 100), 100, "relocated short page")
	check(5, zeros, 0, "relocated zero page")

	// An erase pools the buffers of valid pages too, and a free page reads zeros.
	pooled := len(n.pool)
	n.eraseBlock(0) // page 0 is still valid, holding 200 bytes
	if len(n.pool) != pooled+1 {
		t.Fatalf("erase pooled %d buffers, want 1", len(n.pool)-pooled)
	}
	check(0, zeros, 0, "free page after an erase")
	n.programPage(0, fill(0x44))
	check(0, fill(0x44), pageSize, "full page in a pooled buffer")
}

// TestNANDSteadyStateAllocatesNothing: once the pool holds the buffers a
// cycle needs, programming, relocating, invalidating and erasing allocate
// nothing — zero pages included.
func TestNANDSteadyStateAllocatesNothing(t *testing.T) {
	const pageSize = 256
	n := newNANDArray(pageSize, 4, 2)
	full := bytes.Repeat([]byte{0x5A}, pageSize)
	short := append(bytes.Repeat([]byte{0x5A}, 40), make([]byte, pageSize-40)...)
	zeros := make([]byte, pageSize)
	cycle := func() {
		n.programPage(0, full)
		n.programPage(1, short)
		n.programPage(2, zeros)
		n.programPage(3, full)
		n.invalidatePage(0)
		n.copyPage(1, 4)
		n.copyPage(2, 5)
		n.eraseBlock(0)
		n.eraseBlock(1)
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a program/relocate/invalidate/erase cycle allocates %.1f times, want 0", allocs)
	}
}

func TestNANDCountersTrackOps(t *testing.T) {
	n := newNANDArray(2<<10, 64, 2)
	page := make([]byte, 2<<10)
	n.programPage(0, page)
	n.programPage(1, page)
	n.readAt(0, 0, page)
	if n.programs != 2 || n.reads != 1 {
		t.Fatalf("programs=%d reads=%d", n.programs, n.reads)
	}
	n.copyPage(1, 2) // a relocation is one read, one program, one copy
	if n.programs != 3 || n.reads != 2 || n.copies != 1 {
		t.Fatalf("after copyPage: programs=%d reads=%d copies=%d", n.programs, n.reads, n.copies)
	}
}
