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
