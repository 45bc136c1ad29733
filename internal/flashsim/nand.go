package flashsim

import (
	"bytes"
	"fmt"
)

// nandArray models the raw NAND medium shared by every FTL in this
// package: physical pages grouped into erase blocks, with program/read/
// erase mechanics, page states, per-block wear counters and real data
// storage. It charges no time itself — FTLs account latency — and it is
// not safe for concurrent use (the owning device serializes).
//
// Each erase block owns one host buffer from its first program until its
// erase, which hands the buffer — uncleared — to the next block that needs
// one. That is sound because state decides what a read returns, bytes
// don't: a page is always programmed whole, and a free page reads as zeros
// whatever an earlier life of its buffer left there. Host memory is
// therefore bounded by the peak number of simultaneously programmed blocks,
// and steady-state program/erase cycles allocate and clear nothing.
//
// By the same rule a page programmed with all-zero content stores no bytes:
// its zero bit, set on every program, makes a read clear the destination and
// a relocation carry the bit instead of the bytes.
type nandArray struct {
	pageSize      int
	pagesPerBlock int
	blocks        int

	blockBuf   [][]byte // per block: its bytes, nil while fully erased
	freeBufs   [][]byte // buffers of erased blocks, reused as they are
	pageState  []int8   // pageFree / pageValid / pageInvalid
	zero       []bool   // per programmed page: its content is all zeros
	zeroPage   []byte   // pageSize zeros, what programPage compares against
	blockValid []int    // valid pages per block
	blockFree  []int    // free (never-programmed-since-erase) pages per block
	erases     []int64

	totalErases int64
	programs    int64
	reads       int64
	copies      int64 // copyPage calls: pages an FTL relocated
}

func newNANDArray(pageSize, pagesPerBlock, blocks int) *nandArray {
	if pageSize <= 0 || pagesPerBlock <= 0 || blocks <= 0 {
		panic(fmt.Sprintf("flashsim: invalid NAND geometry %d/%d/%d", pageSize, pagesPerBlock, blocks))
	}
	n := &nandArray{
		pageSize:      pageSize,
		pagesPerBlock: pagesPerBlock,
		blocks:        blocks,
		blockBuf:      make([][]byte, blocks),
		pageState:     make([]int8, blocks*pagesPerBlock),
		zero:          make([]bool, blocks*pagesPerBlock),
		zeroPage:      make([]byte, pageSize),
		blockValid:    make([]int, blocks),
		blockFree:     make([]int, blocks),
		erases:        make([]int64, blocks),
	}
	for b := range n.blockFree {
		n.blockFree[b] = pagesPerBlock
	}
	return n
}

func (n *nandArray) blockBytes() int64 { return int64(n.pageSize * n.pagesPerBlock) }

func (n *nandArray) blockOf(phys int32) int { return int(phys) / n.pagesPerBlock }

// page returns the bytes of a programmed (valid or invalid) physical page.
func (n *nandArray) page(phys int32) []byte {
	off := int(phys) % n.pagesPerBlock * n.pageSize
	return n.blockBuf[n.blockOf(phys)][off : off+n.pageSize]
}

// readAt copies len(p) bytes of a physical page, starting po bytes into it,
// into p. A free page and a zero page read as zeros.
func (n *nandArray) readAt(phys int32, po int, p []byte) {
	if n.pageState[phys] == pageFree || n.zero[phys] {
		clear(p)
	} else {
		copy(p, n.page(phys)[po:])
	}
	n.reads++
}

// readPage copies a physical page into buf (len >= pageSize).
func (n *nandArray) readPage(phys int32, buf []byte) { n.readAt(phys, 0, buf[:n.pageSize]) }

// programPage writes content into a free physical page and marks it valid.
// Programming a non-free page panics: NAND cannot overwrite in place, and
// an FTL that tries has a bug.
func (n *nandArray) programPage(phys int32, content []byte) {
	if n.pageState[phys] != pageFree {
		panic(fmt.Sprintf("flashsim: program of non-free page %d (state %d)", phys, n.pageState[phys]))
	}
	b := n.blockOf(phys)
	if n.blockBuf[b] == nil {
		if last := len(n.freeBufs) - 1; last >= 0 {
			n.blockBuf[b], n.freeBufs = n.freeBufs[last], n.freeBufs[:last]
		} else {
			n.blockBuf[b] = make([]byte, n.blockBytes())
		}
	}
	n.pageState[phys] = pageValid
	n.zero[phys] = bytes.Equal(content[:n.pageSize], n.zeroPage)
	if !n.zero[phys] {
		copy(n.page(phys), content[:n.pageSize])
	}
	n.blockValid[b]++
	n.blockFree[b]--
	n.programs++
}

// copyPage programs free page dst with the content of programmed page src:
// one array read and one program, one host copy unless src is a zero page
// (comparing zeroPage with itself costs nothing).
func (n *nandArray) copyPage(src, dst int32) {
	n.reads++
	n.copies++
	content := n.zeroPage
	if !n.zero[src] {
		content = n.page(src)
	}
	n.programPage(dst, content)
}

// invalidatePage marks a valid page invalid (its logical content moved or
// was trimmed).
func (n *nandArray) invalidatePage(phys int32) {
	if n.pageState[phys] == pageValid {
		n.pageState[phys] = pageInvalid
		n.blockValid[n.blockOf(phys)]--
	}
}

// eraseBlock resets every page of block b to free and bumps wear.
func (n *nandArray) eraseBlock(b int) {
	base := b * n.pagesPerBlock
	for i := 0; i < n.pagesPerBlock; i++ {
		n.pageState[base+i] = pageFree
	}
	if buf := n.blockBuf[b]; buf != nil {
		n.freeBufs = append(n.freeBufs, buf)
		n.blockBuf[b] = nil
	}
	n.blockValid[b] = 0
	n.blockFree[b] = n.pagesPerBlock
	n.erases[b]++
	n.totalErases++
}

// wearSummary folds per-block erase counters.
func (n *nandArray) wearSummary() (total, max int64) {
	for _, e := range n.erases {
		total += e
		if e > max {
			max = e
		}
	}
	return total, max
}
