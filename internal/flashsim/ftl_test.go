package flashsim

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"hybridstore/internal/simclock"
)

func smallParams(exported, spare int) Params {
	return Params{
		PageSize:       2 << 10,
		PagesPerBlock:  64,
		ExportedBlocks: exported,
		SpareBlocks:    spare,
	}
}

// subtestName is the FTL's printed name without its hyphen ("pagemap",
// "blockmap", "hybridlog"): what the per-FTL subtests have always run as.
func subtestName(k FTLKind) string { return strings.ReplaceAll(k.String(), "-", "") }

// makeFTLs builds one drive per FTL in the table, with identical geometry.
func makeFTLs(exported, spare int) map[string]*SSD {
	drives := make(map[string]*SSD)
	for k := FTLPageMap; k.Valid(); k++ {
		drives[subtestName(k)] = NewFTL(k, subtestName(k), simclock.New(), smallParams(exported, spare))
	}
	return drives
}

func TestAllFTLsReadBackWrite(t *testing.T) {
	for name, d := range makeFTLs(8, 4) {
		t.Run(name, func(t *testing.T) {
			data := []byte("ftl round trip")
			if _, err := d.WriteAt(data, 5000); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(data))
			if _, err := d.ReadAt(got, 5000); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("read %q", got)
			}
		})
	}
}

func TestAllFTLsUnwrittenZero(t *testing.T) {
	for name, d := range makeFTLs(4, 4) {
		t.Run(name, func(t *testing.T) {
			buf := make([]byte, 256)
			d.ReadAt(buf, d.Size()/2)
			for _, b := range buf {
				if b != 0 {
					t.Fatal("unwritten range not zero")
				}
			}
		})
	}
}

func TestAllFTLsOverwriteWins(t *testing.T) {
	for name, d := range makeFTLs(8, 4) {
		t.Run(name, func(t *testing.T) {
			page := make([]byte, d.PageSize())
			for round := byte(1); round <= 5; round++ {
				for i := range page {
					page[i] = round
				}
				d.WriteAt(page, int64(3*d.PageSize()))
			}
			got := make([]byte, d.PageSize())
			d.ReadAt(got, int64(3*d.PageSize()))
			if got[0] != 5 || got[len(got)-1] != 5 {
				t.Fatalf("overwrite lost: byte %d", got[0])
			}
		})
	}
}

func TestAllFTLsSurviveCapacityChurn(t *testing.T) {
	for name, d := range makeFTLs(6, 4) {
		t.Run(name, func(t *testing.T) {
			pageSize := int64(d.PageSize())
			pages := d.Size() / pageSize
			buf := make([]byte, pageSize)
			// Three full sequential passes with distinct fills.
			for round := byte(1); round <= 3; round++ {
				for lp := int64(0); lp < pages; lp++ {
					for i := range buf {
						buf[i] = round + byte(lp%31)
					}
					if _, err := d.WriteAt(buf, lp*pageSize); err != nil {
						t.Fatalf("round %d page %d: %v", round, lp, err)
					}
				}
			}
			// Everything must read back as round 3.
			got := make([]byte, pageSize)
			for lp := int64(0); lp < pages; lp += 7 {
				d.ReadAt(got, lp*pageSize)
				want := byte(3) + byte(lp%31)
				if got[0] != want {
					t.Fatalf("page %d = %d, want %d", lp, got[0], want)
				}
			}
		})
	}
}

func TestAllFTLsTrimZeroes(t *testing.T) {
	for name, d := range makeFTLs(6, 4) {
		t.Run(name, func(t *testing.T) {
			blockBytes := d.BlockSize()
			buf := make([]byte, blockBytes)
			for i := range buf {
				buf[i] = 0xEE
			}
			d.WriteAt(buf, 0)
			if _, err := d.Trim(0, blockBytes); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, blockBytes)
			d.ReadAt(got, 0)
			for i, b := range got {
				if b != 0 {
					t.Fatalf("byte %d not zero after trim", i)
				}
			}
		})
	}
}

func TestFTLRandomWriteCostOrdering(t *testing.T) {
	// The paper's §II-A hierarchy under random single-page overwrites:
	// block mapping amplifies writes catastrophically, the hybrid log
	// sits in between, the ideal page map is cheapest.
	wearOf := func(d *SSD) float64 {
		rng := simclock.NewRNG(11)
		pageSize := int64(d.PageSize())
		pages := int(d.Size() / pageSize)
		buf := make([]byte, pageSize)
		for i := 0; i < pages*3; i++ {
			d.WriteAt(buf, int64(rng.Intn(pages))*pageSize)
		}
		return d.Wear().WriteAmplification
	}
	ftls := makeFTLs(8, 4)
	pm := wearOf(ftls["pagemap"])
	hl := wearOf(ftls["hybridlog"])
	bm := wearOf(ftls["blockmap"])
	if !(pm <= hl && hl <= bm) {
		t.Fatalf("WA ordering wrong: pagemap %.2f, hybridlog %.2f, blockmap %.2f", pm, hl, bm)
	}
	if bm < 2 {
		t.Fatalf("blockmap WA %.2f suspiciously low under random overwrites", bm)
	}
}

func TestFTLSequentialFillCheapEverywhere(t *testing.T) {
	// A sequential first fill is the friendly pattern for every FTL:
	// write amplification stays at 1 (no relocation, no merges).
	for name, d := range makeFTLs(8, 4) {
		t.Run(name, func(t *testing.T) {
			buf := make([]byte, d.PageSize())
			for off := int64(0); off < d.Size(); off += int64(len(buf)) {
				d.WriteAt(buf, off)
			}
			if wa := d.Wear().WriteAmplification; wa > 1.01 {
				t.Fatalf("sequential fill WA = %.2f, want 1", wa)
			}
		})
	}
}

func TestFTLSequentialRewrite(t *testing.T) {
	// Rewriting sequentially: free for the page map (victims are fully
	// invalid), tolerable for the hybrid log, and expensive for naive
	// block mapping (every in-place overwrite forces a merge) — the
	// weakness [7] is cited for in §II-A.
	wearAfterRewrites := func(d *SSD) float64 {
		buf := make([]byte, d.PageSize())
		for round := 0; round < 3; round++ {
			for off := int64(0); off < d.Size(); off += int64(len(buf)) {
				d.WriteAt(buf, off)
			}
		}
		return d.Wear().WriteAmplification
	}
	ftls := makeFTLs(8, 4)
	pm := wearAfterRewrites(ftls["pagemap"])
	bm := wearAfterRewrites(ftls["blockmap"])
	if pm > 1.6 {
		t.Fatalf("pagemap sequential-rewrite WA = %.2f, want near 1", pm)
	}
	if bm <= pm {
		t.Fatalf("blockmap WA %.2f not above pagemap %.2f on rewrites", bm, pm)
	}
}

func TestBlockMappedMergeCounted(t *testing.T) {
	d := NewFTL(FTLBlockMap, "bm", simclock.New(), smallParams(4, 2))
	page := make([]byte, d.PageSize())
	d.WriteAt(page, 0)
	d.WriteAt(page, 0) // overwrite → merge
	w := d.Wear()
	if w.GCRuns == 0 {
		t.Fatal("merge not counted")
	}
	if w.TotalErases == 0 {
		t.Fatal("merge did not erase")
	}
}

func TestBlockMappedOverwriteLatencyIncludesMerge(t *testing.T) {
	d := NewFTL(FTLBlockMap, "bm", simclock.New(), smallParams(4, 2))
	page := make([]byte, d.PageSize())
	first, _ := d.WriteAt(page, 0)
	second, _ := d.WriteAt(page, 0)
	if second <= first {
		t.Fatalf("overwrite (%v) not slower than first write (%v)", second, first)
	}
	if second < 1500*time.Microsecond {
		t.Fatalf("overwrite %v cheaper than one erase", second)
	}
}

func TestHybridLogAbsorbsOverwrites(t *testing.T) {
	// A few overwrites should land in the log with no merge at all.
	d := NewFTL(FTLHybridLog, "hl", simclock.New(), smallParams(8, 6))
	page := make([]byte, d.PageSize())
	for i := 0; i < 10; i++ {
		d.WriteAt(page, 0)
	}
	if d.Wear().GCRuns != 0 {
		t.Fatalf("hybrid log merged after only 10 overwrites (pool should absorb them)")
	}
	if d.Wear().TotalErases != 0 {
		t.Fatal("erases without log exhaustion")
	}
}

func TestHybridLogMergesWhenLogFull(t *testing.T) {
	d := NewFTL(FTLHybridLog, "hl", simclock.New(), smallParams(6, 4))
	rng := simclock.NewRNG(3)
	page := make([]byte, d.PageSize())
	pages := int(d.Size() / int64(d.PageSize()))
	for i := 0; i < pages*4; i++ {
		d.WriteAt(page, int64(rng.Intn(pages))*int64(d.PageSize()))
	}
	w := d.Wear()
	if w.GCRuns == 0 {
		t.Fatal("log never merged under sustained random overwrites")
	}
	if w.TotalErases == 0 {
		t.Fatal("no erases despite merges")
	}
}

func TestFTLGeometryValidation(t *testing.T) {
	cases := []func(){
		func() { NewFTL(FTLBlockMap, "x", simclock.New(), Params{}) },
		func() { NewFTL(FTLBlockMap, "x", simclock.New(), smallParams(4, 0)) },
		func() { NewFTL(FTLHybridLog, "x", simclock.New(), Params{}) },
		func() { NewFTL(FTLHybridLog, "x", simclock.New(), smallParams(4, 2)) },
		func() { NewFTL(FTLKind(3), "x", simclock.New(), smallParams(4, 4)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestFTLNamesParseBack(t *testing.T) {
	for k := FTLPageMap; k.Valid(); k++ {
		if got, err := ParseFTL(k.String()); err != nil || got != k {
			t.Errorf("ParseFTL(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseFTL("flash"); err == nil {
		t.Error("unknown FTL name parsed")
	}
}

func TestFTLLastWriteWinsProperty(t *testing.T) {
	// Property: after an arbitrary series of page-sized writes the last
	// write to each page wins, even with GC or merge churn in between —
	// each FTL on the fewest spare blocks it accepts.
	for k := FTLPageMap; k.Valid(); k++ {
		t.Run(subtestName(k), func(t *testing.T) {
			check := func(writes []uint16) bool {
				d := NewFTL(k, "ssd", simclock.New(), smallParams(4, ftls[k].minSpare))
				pageSize := int64(d.PageSize())
				pages := int(d.Size() / pageSize)
				last := make(map[int]byte)
				buf := make([]byte, pageSize)
				for i, w := range writes {
					lp := int(w) % pages
					tag := byte(i + 1)
					for j := range buf {
						buf[j] = tag
					}
					if _, err := d.WriteAt(buf, int64(lp)*pageSize); err != nil {
						return false
					}
					last[lp] = tag
				}
				got := make([]byte, pageSize)
				for lp, tag := range last {
					d.ReadAt(got, int64(lp)*pageSize)
					if got[0] != tag || got[pageSize-1] != tag {
						return false
					}
				}
				return true
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHybridLogMergeOrderRepeats feeds two hybrid-log drives the same seeded
// overwrite stream: they must end with the same logical→physical block map
// and the same per-block erase counters. Merge order decides which free
// block each rebuilt logical block lands in, so an order taken from a Go
// map made the two differ on nearly every run.
func TestHybridLogMergeOrderRepeats(t *testing.T) {
	run := func() (*SSD, *hybridLog) {
		d := NewFTL(FTLHybridLog, "hl", simclock.New(), smallParams(16, 6))
		rng := simclock.NewRNG(2561)
		pageSize := int64(d.PageSize())
		pages := int(d.Size() / pageSize)
		buf := make([]byte, pageSize)
		for i := 0; i < 4000; i++ {
			if _, err := d.WriteAt(buf, int64(rng.Intn(pages))*pageSize); err != nil {
				t.Fatal(err)
			}
		}
		return d, d.ftl.(*hybridLog)
	}
	a, am := run()
	b, bm := run()
	if a.Wear().GCRuns == 0 {
		t.Fatal("the stream never filled the log pool: nothing was merged")
	}
	if !slices.Equal(a.nand.erases, b.nand.erases) {
		t.Errorf("per-block erase counters differ between identical runs:\n%v\n%v", a.nand.erases, b.nand.erases)
	}
	if !slices.Equal(am.l2pBlock, bm.l2pBlock) || !slices.Equal(am.logBlocks, bm.logBlocks) {
		t.Errorf("block maps differ between identical runs:\n%v log %v\n%v log %v",
			am.l2pBlock, am.logBlocks, bm.l2pBlock, bm.logBlocks)
	}
}

// checkMediumInvariants asserts the bookkeeping the recycled block buffers
// and the page-mapped FTL's victim choice rest on.
func checkMediumInvariants(t *testing.T, d *SSD) {
	t.Helper()
	n := d.nand
	owned := 0
	for b, buf := range n.blockBuf {
		if erased := n.blockFree[b] == n.pagesPerBlock; erased != (buf == nil) {
			t.Fatalf("block %d: %d free pages but buffer present=%v", b, n.blockFree[b], buf != nil)
		}
		if buf != nil {
			owned++
		}
	}
	if owned+len(n.freeBufs) > n.blocks {
		t.Fatalf("%d owned + %d idle buffers for %d blocks", owned, len(n.freeBufs), n.blocks)
	}
	for _, b := range d.freeBlocks {
		if n.blockFree[b] != n.pagesPerBlock {
			t.Fatalf("block %d on freeBlocks with %d of %d pages free", b, n.blockFree[b], n.pagesPerBlock)
		}
	}
	if pm, ok := d.ftl.(*pageMap); ok {
		// pickVictim tells a free block by its free-page count alone: off
		// the frontier, the erased blocks must be exactly the free stack.
		erased := 0
		for b, free := range n.blockFree {
			if b != pm.active && free == n.pagesPerBlock {
				erased++
			}
		}
		if erased != len(d.freeBlocks) {
			t.Fatalf("%d erased blocks off the frontier, freeBlocks holds %d", erased, len(d.freeBlocks))
		}
	}
}

// TestAllFTLsMatchByteModelAcrossRecycling drives each FTL with a seeded
// random mix of writes, trims and reads — unaligned, page-straddling, long
// enough to erase and reuse every block several times — and checks every
// read byte for byte against a plain []byte model of the logical space.
// Erased blocks hand their buffers on uncleared, so this is the test that a
// recycled buffer's old bytes never surface in an unmapped, trimmed or
// partially written page.
func TestAllFTLsMatchByteModelAcrossRecycling(t *testing.T) {
	params := Params{PageSize: 256, PagesPerBlock: 8, ExportedBlocks: 6, SpareBlocks: 4}
	for k := FTLPageMap; k.Valid(); k++ {
		t.Run(subtestName(k), func(t *testing.T) {
			d := NewFTL(k, "ssd", simclock.New(), params)
			rng := rand.New(rand.NewSource(42))
			size := int(d.Size())
			pageSize := d.PageSize()
			model := make([]byte, size)
			got := make([]byte, size)
			span := func() (off, n int) {
				n = 1 + rng.Intn(3*pageSize)
				off = rng.Intn(size - n + 1)
				return off, n
			}
			for op := 0; op < 6000; op++ {
				switch k := rng.Intn(10); {
				case k < 5:
					off, n := span()
					for i := off; i < off+n; i++ {
						model[i] = byte(1 + rng.Intn(255)) // never zero: stale bytes must show
					}
					if _, err := d.WriteAt(model[off:off+n], int64(off)); err != nil {
						t.Fatal(err)
					}
				case k < 7:
					off, n := span()
					if _, err := d.Trim(int64(off), int64(n)); err != nil {
						t.Fatal(err)
					}
					clear(model[off : off+n])
				default:
					off, n := span()
					if op%100 == 0 {
						off, n = 0, size
					}
					for i := range got[:n] {
						got[i] = 0xEE // a read must overwrite every byte it returns
					}
					if _, err := d.ReadAt(got[:n], int64(off)); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got[:n], model[off:off+n]) {
						for i := range got[:n] {
							if got[i] != model[off+i] {
								t.Fatalf("op %d: byte %d reads %#x, model %#x", op, off+i, got[i], model[off+i])
							}
						}
					}
				}
				checkMediumInvariants(t, d)
			}
			if n := d.nand; n.totalErases < 5*int64(n.blocks) {
				t.Errorf("%d erases over %d blocks: the sequence is too short to recycle them", n.totalErases, n.blocks)
			}
		})
	}
}
