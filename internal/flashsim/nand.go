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
// A page holds its bytes in a host buffer of its own, cut after its last
// non-zero byte, and only while it is valid: an all-zero page holds none, and
// a page that is invalidated or erased hands its buffer to the drive's pool,
// uncleared, for the next program. A read copies the stored bytes and clears
// the rest, so a buffer's earlier life never shows. Host memory is therefore
// bounded by the peak number of valid non-zero pages, steady-state program/
// erase cycles allocate nothing, and a relocation moves the buffer to its new
// page instead of copying bytes.
type nandArray struct {
	pageSize      int
	pagesPerBlock int
	blocks        int

	data       [][]byte // per page: its bytes up to the last non-zero one; nil unless valid and non-zero
	pool       [][]byte // pageSize buffers no page holds, reused as they are
	zeroPage   []byte   // pageSize zeros, what programPage compares against
	pageState  []int8   // pageFree / pageValid / pageInvalid
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
		data:          make([][]byte, blocks*pagesPerBlock),
		zeroPage:      make([]byte, pageSize),
		pageState:     make([]int8, blocks*pagesPerBlock),
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

// readAt copies len(p) bytes of a physical page, starting po bytes into it,
// into p: the stored bytes, then zeros. A free page and a zero page store none.
func (n *nandArray) readAt(phys int32, po int, p []byte) {
	k := 0
	if stored := n.data[phys]; po < len(stored) {
		k = copy(p, stored[po:])
	}
	clear(p[k:])
	n.reads++
}

// programPage writes content into a free physical page and marks it valid.
// An all-zero page, told by one compare, stores nothing; any other takes a
// pooled buffer for its bytes up to the last non-zero one: the cut saves no
// memory, but copying on program and read (DESIGN §17). Programming a
// non-free page panics: NAND cannot overwrite in place.
func (n *nandArray) programPage(phys int32, content []byte) {
	if n.pageState[phys] != pageFree {
		panic(fmt.Sprintf("flashsim: program of non-free page %d (state %d)", phys, n.pageState[phys]))
	}
	b := n.blockOf(phys)
	n.pageState[phys] = pageValid
	n.blockValid[b]++
	n.blockFree[b]--
	n.programs++
	content = content[:n.pageSize]
	if bytes.Equal(content, n.zeroPage) {
		return
	}
	end := n.pageSize
	for end >= 64 && bytes.Equal(content[end-64:end], n.zeroPage[:64]) {
		end -= 64
	}
	for content[end-1] == 0 {
		end--
	}
	var buf []byte
	if last := len(n.pool) - 1; last >= 0 {
		buf, n.pool = n.pool[last], n.pool[:last]
	} else {
		buf = make([]byte, n.pageSize)
	}
	n.data[phys] = buf[:copy(buf, content[:end])]
}

// copyPage relocates valid page src to free page dst: one array read and
// one program on the medium, and no host copy — dst takes src's buffer, and
// src is left invalid.
func (n *nandArray) copyPage(src, dst int32) {
	buf := n.data[src]
	n.data[src] = nil
	n.invalidatePage(src)
	n.programPage(dst, n.zeroPage) // comparing zeroPage with itself costs nothing
	n.data[dst] = buf
	n.reads++
	n.copies++
}

// invalidatePage marks a valid page invalid (its logical content moved or
// was trimmed) and pools its buffer.
func (n *nandArray) invalidatePage(phys int32) {
	if n.pageState[phys] == pageValid {
		n.pageState[phys] = pageInvalid
		n.blockValid[n.blockOf(phys)]--
		n.release(phys)
	}
}

// release hands page phys's buffer, if it holds one, to the pool.
func (n *nandArray) release(phys int32) {
	if buf := n.data[phys]; buf != nil {
		n.pool = append(n.pool, buf[:n.pageSize])
		n.data[phys] = nil
	}
}

// eraseBlock resets every page of block b to free and bumps wear.
func (n *nandArray) eraseBlock(b int) {
	for phys := int32(b * n.pagesPerBlock); phys < int32((b+1)*n.pagesPerBlock); phys++ {
		n.pageState[phys] = pageFree
		n.release(phys)
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
