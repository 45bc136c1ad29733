package flashsim

import (
	"bytes"
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
	n.readPage(5, got)
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
	n.readPage(5, got)
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

// TestNANDZeroPages: an all-zero page stores no bytes, so its zero bit alone
// must make it read as zeros — in a buffer whose old bytes are not zero — and
// travel with a relocation; a later non-zero program of the same physical
// page, before or after an erase, must read back its own bytes.
func TestNANDZeroPages(t *testing.T) {
	const pageSize = 256
	n := newNANDArray(pageSize, 4, 2)
	fill := func(v byte) []byte { return bytes.Repeat([]byte{v}, pageSize) }
	zeros := make([]byte, pageSize)
	got := make([]byte, pageSize)
	check := func(phys int32, want []byte, what string) {
		t.Helper()
		copy(got, fill(0xEE)) // a read must overwrite every byte
		n.readPage(phys, got)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: page %d reads %#x…, want %#x…", what, phys, got[0], want[0])
		}
	}
	// Leave stale non-zero bytes in block 0's buffer, then recycle it.
	for p := int32(0); p < 4; p++ {
		n.programPage(p, fill(0xAA))
	}
	n.eraseBlock(0)

	n.programPage(0, zeros) // reuses the stale buffer
	check(0, zeros, "zero page read")
	n.copyPage(0, 4) // block 1 takes a fresh buffer
	n.programPage(5, fill(0x11))
	n.copyPage(5, 6)
	check(4, zeros, "zero page copied")
	check(6, fill(0x11), "non-zero page copied")

	n.programPage(1, zeros)
	n.programPage(2, fill(0x22)) // after a zero page in the same block
	check(2, fill(0x22), "non-zero page after a zero one")

	n.eraseBlock(0)
	n.programPage(1, fill(0x33)) // the physical page that last held zeros
	check(1, fill(0x33), "non-zero page after an erase")
	check(0, zeros, "free page after an erase")
}

func TestNANDCountersTrackOps(t *testing.T) {
	n := newNANDArray(2<<10, 64, 2)
	page := make([]byte, 2<<10)
	n.programPage(0, page)
	n.programPage(1, page)
	n.readPage(0, page)
	if n.programs != 2 || n.reads != 1 {
		t.Fatalf("programs=%d reads=%d", n.programs, n.reads)
	}
	n.copyPage(1, 2) // a relocation is one read, one program, one copy
	if n.programs != 3 || n.reads != 2 || n.copies != 1 {
		t.Fatalf("after copyPage: programs=%d reads=%d copies=%d", n.programs, n.reads, n.copies)
	}
}
