package flashsim

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"hybridstore/internal/simclock"
	"hybridstore/internal/storage"
)

// smallSSD builds a tiny drive (exported blocks × 4 KiB pages … actually the
// paper geometry: 2 KiB pages, 64-page blocks) so GC triggers quickly.
func smallSSD(t *testing.T, exported, spare int) (*SSD, *simclock.Clock) {
	t.Helper()
	clk := simclock.New()
	d := New("ssd", clk, Params{
		PageSize:       2 << 10,
		PagesPerBlock:  64,
		ExportedBlocks: exported,
		SpareBlocks:    spare,
	})
	return d, clk
}

func TestSSDReadBackWrite(t *testing.T) {
	d, _ := smallSSD(t, 8, 4)
	data := []byte("posting list bytes")
	if _, err := d.WriteAt(data, 1000); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := d.ReadAt(got, 1000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %q, want %q", got, data)
	}
}

func TestSSDUnwrittenReadsZero(t *testing.T) {
	d, _ := smallSSD(t, 8, 4)
	got := make([]byte, 100)
	d.ReadAt(got, 50000)
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten SSD range not zero")
		}
	}
}

func TestSSDPageAlignedWriteCost(t *testing.T) {
	d, _ := smallSSD(t, 8, 4)
	lat, _ := d.WriteAt(make([]byte, 2<<10), 0) // exactly one page, aligned
	if lat != 101475*time.Nanosecond {
		t.Fatalf("aligned page write cost %v, want 101.475µs", lat)
	}
}

func TestSSDPartialWritePaysRMW(t *testing.T) {
	d, _ := smallSSD(t, 8, 4)
	d.WriteAt(make([]byte, 2<<10), 0)
	// Overwrite 100 bytes mid-page: read (32.725) + program (101.475).
	lat, _ := d.WriteAt(make([]byte, 100), 10)
	want := 32725*time.Nanosecond + 101475*time.Nanosecond
	if lat != want {
		t.Fatalf("partial overwrite cost %v, want %v", lat, want)
	}
	// Partial write to an unmapped page needs no read.
	lat2, _ := d.WriteAt(make([]byte, 100), 100<<10)
	if lat2 != 101475*time.Nanosecond {
		t.Fatalf("partial write to unmapped page cost %v", lat2)
	}
}

func TestSSDReadCostPerPage(t *testing.T) {
	d, _ := smallSSD(t, 8, 4)
	lat, _ := d.ReadAt(make([]byte, 3*(2<<10)), 0) // three pages
	if lat != 3*32725*time.Nanosecond {
		t.Fatalf("3-page read cost %v", lat)
	}
	// A 1-byte read spanning a page boundary costs two page reads.
	lat2, _ := d.ReadAt(make([]byte, 2), (2<<10)-1)
	if lat2 != 2*32725*time.Nanosecond {
		t.Fatalf("boundary read cost %v", lat2)
	}
}

func TestSSDOverwriteInvalidatesOldPage(t *testing.T) {
	d, _ := smallSSD(t, 8, 4)
	page := make([]byte, 2<<10)
	for i := range page {
		page[i] = 1
	}
	d.WriteAt(page, 0)
	for i := range page {
		page[i] = 2
	}
	d.WriteAt(page, 0)
	got := make([]byte, 2<<10)
	d.ReadAt(got, 0)
	if got[0] != 2 || got[len(got)-1] != 2 {
		t.Fatal("overwrite not visible")
	}
	w := d.Wear()
	if w.HostPagesWritten != 2 {
		t.Fatalf("HostPagesWritten = %d, want 2", w.HostPagesWritten)
	}
}

// fillSSD writes the drive's whole logical space with a recognizable pattern
// several times over to force garbage collection.
func fillSSD(t *testing.T, d *SSD, rounds int) map[int64]byte {
	t.Helper()
	content := make(map[int64]byte)
	pageSize := int64(d.PageSize())
	pages := d.Size() / pageSize
	buf := make([]byte, pageSize)
	for r := 0; r < rounds; r++ {
		for lp := int64(0); lp < pages; lp++ {
			tag := byte(r*31 + int(lp%97) + 1)
			for i := range buf {
				buf[i] = tag
			}
			if _, err := d.WriteAt(buf, lp*pageSize); err != nil {
				t.Fatal(err)
			}
			content[lp] = tag
		}
	}
	return content
}

func TestSSDGCRunsUnderPressure(t *testing.T) {
	d, _ := smallSSD(t, 8, 4)
	fillSSD(t, d, 3)
	w := d.Wear()
	if w.TotalErases == 0 {
		t.Fatal("no erases after writing 3x the logical capacity")
	}
	if w.GCRuns == 0 {
		t.Fatal("GC never ran")
	}
	if w.FreeBlocks == 0 {
		t.Fatal("GC left no free blocks")
	}
}

func TestSSDDataSurvivesGC(t *testing.T) {
	d, _ := smallSSD(t, 8, 4)
	content := fillSSD(t, d, 4)
	pageSize := int64(d.PageSize())
	buf := make([]byte, pageSize)
	for lp, tag := range content {
		d.ReadAt(buf, lp*pageSize)
		for i, b := range buf {
			if b != tag {
				t.Fatalf("page %d byte %d = %d, want %d (data lost in GC)", lp, i, b, tag)
			}
		}
	}
}

func TestSSDWriteAmplificationAboveOneUnderGC(t *testing.T) {
	d, _ := smallSSD(t, 8, 4)
	// Random single-page overwrites create invalid pages everywhere,
	// the worst case for GC.
	rng := simclock.NewRNG(5)
	pageSize := int64(d.PageSize())
	pages := int(d.Size() / pageSize)
	buf := make([]byte, pageSize)
	for i := 0; i < pages*4; i++ {
		lp := int64(rng.Intn(pages))
		d.WriteAt(buf, lp*pageSize)
	}
	w := d.Wear()
	if w.WriteAmplification <= 1.0 {
		t.Fatalf("WA = %v, want > 1 under random overwrites", w.WriteAmplification)
	}
}

func TestSSDSequentialCheaperThanRandomOverwrite(t *testing.T) {
	// Sequential whole-block rewrites leave victims fully invalid (free
	// erases); random page overwrites force GC to relocate valid pages.
	mk := func() *SSD {
		d, _ := smallSSD(t, 16, 4)
		return d
	}
	pageSize := 2 << 10

	seq := mk()
	buf := make([]byte, pageSize)
	for r := 0; r < 6; r++ {
		for off := int64(0); off < seq.Size(); off += int64(pageSize) {
			seq.WriteAt(buf, off)
		}
	}

	rnd := mk()
	rng := simclock.NewRNG(9)
	pages := int(rnd.Size() / int64(pageSize))
	for i := 0; i < pages*6; i++ {
		rnd.WriteAt(buf, int64(rng.Intn(pages))*int64(pageSize))
	}

	seqW, rndW := seq.Wear(), rnd.Wear()
	if seqW.WriteAmplification >= rndW.WriteAmplification {
		t.Fatalf("sequential WA %.3f not below random WA %.3f",
			seqW.WriteAmplification, rndW.WriteAmplification)
	}
}

func TestSSDTrimFullPages(t *testing.T) {
	d, _ := smallSSD(t, 8, 4)
	data := make([]byte, 4<<10) // two pages
	for i := range data {
		data[i] = 7
	}
	d.WriteAt(data, 0)
	if _, err := d.Trim(0, 4<<10); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4<<10)
	d.ReadAt(got, 0)
	for _, b := range got {
		if b != 0 {
			t.Fatal("trimmed range not zero")
		}
	}
}

func TestSSDTrimPartialPage(t *testing.T) {
	// storage.Trimmer: trimmed ranges read back as zeros, sub-page edges
	// included, whatever the FTL.
	for name, d := range makeFTLs(8, 4) {
		t.Run(name, func(t *testing.T) {
			page := make([]byte, 2<<10)
			for i := range page {
				page[i] = 9
			}
			d.WriteAt(page, 0)
			d.Trim(100, 50)
			got := make([]byte, 2<<10)
			d.ReadAt(got, 0)
			for i, b := range got {
				want := byte(9)
				if i >= 100 && i < 150 {
					want = 0
				}
				if b != want {
					t.Fatalf("byte %d reads %d after Trim(100, 50) of a page of 9s, want %d", i, b, want)
				}
			}
			if w := d.Wear(); w.HostPagesWritten != 1 {
				t.Fatalf("HostPagesWritten = %d: the trim's read-modify-write is not host payload", w.HostPagesWritten)
			}
		})
	}
}

func TestSSDTrimReducesGCWork(t *testing.T) {
	// Writing, trimming, then rewriting should GC cheaper than writing and
	// rewriting live data: trimmed pages need no relocation.
	run := func(trim bool) int64 {
		d, _ := smallSSD(t, 8, 4)
		pageSize := int64(d.PageSize())
		buf := make([]byte, pageSize)
		for round := 0; round < 4; round++ {
			for off := int64(0); off < d.Size(); off += pageSize {
				d.WriteAt(buf, off)
			}
			if trim {
				d.Trim(0, d.Size())
			}
		}
		return d.Wear().GCPageCopies
	}
	withTrim := run(true)
	withoutTrim := run(false)
	if withTrim > withoutTrim {
		t.Fatalf("trim increased GC copies: %d > %d", withTrim, withoutTrim)
	}
}

func TestSSDOutOfRange(t *testing.T) {
	d, _ := smallSSD(t, 2, 2)
	if _, err := d.ReadAt(make([]byte, 1), d.Size()); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("read err = %v", err)
	}
	if _, err := d.WriteAt(make([]byte, 1), -1); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("write err = %v", err)
	}
	if _, err := d.Trim(0, d.Size()+1); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("trim err = %v", err)
	}
}

func TestSSDStatsAndHook(t *testing.T) {
	d, _ := smallSSD(t, 8, 4)
	var kinds []storage.OpKind
	d.SetOpHook(func(op storage.Op) { kinds = append(kinds, op.Kind) })
	d.WriteAt(make([]byte, 100), 0)
	d.ReadAt(make([]byte, 100), 0)
	d.Trim(0, 2<<10)
	s := d.Stats()
	if s.Reads != 1 || s.Writes != 1 || s.Trims != 1 {
		t.Fatalf("stats = %+v", s)
	}
	want := []storage.OpKind{storage.OpWrite, storage.OpRead, storage.OpTrim}
	if len(kinds) != 3 || kinds[0] != want[0] || kinds[1] != want[1] || kinds[2] != want[2] {
		t.Fatalf("hook saw %v", kinds)
	}
}

func TestSSDEraseCountsInStats(t *testing.T) {
	d, _ := smallSSD(t, 8, 4)
	fillSSD(t, d, 3)
	if d.Stats().Erases == 0 {
		t.Fatal("stats did not record erases")
	}
	if d.Stats().Erases != d.Wear().TotalErases {
		t.Fatalf("stats erases %d != wear erases %d", d.Stats().Erases, d.Wear().TotalErases)
	}
}

func TestSSDClockCharged(t *testing.T) {
	d, clk := smallSSD(t, 8, 4)
	before := clk.Now()
	lat, _ := d.WriteAt(make([]byte, 2<<10), 0)
	if clk.Now()-before != lat {
		t.Fatalf("clock advanced %v, latency %v", clk.Now()-before, lat)
	}
}

func TestSSDGeometryValidation(t *testing.T) {
	for name, p := range map[string]Params{
		"zero":      {},
		"no-spare":  {PageSize: 2 << 10, PagesPerBlock: 64, ExportedBlocks: 4, SpareBlocks: 1},
		"neg-pages": {PageSize: -1, PagesPerBlock: 64, ExportedBlocks: 4, SpareBlocks: 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: invalid params did not panic", name)
				}
			}()
			New("x", simclock.New(), p)
		}()
	}
}

func TestDefaultParamsGeometry(t *testing.T) {
	p := DefaultParams(10 << 20) // 10 MiB
	if p.PageSize != 2<<10 || p.PagesPerBlock != 64 {
		t.Fatalf("geometry %+v not Table III", p)
	}
	if p.ExportedBlocks != 80 {
		t.Fatalf("ExportedBlocks = %d, want 80 (10 MiB / 128 KiB)", p.ExportedBlocks)
	}
	if p.SpareBlocks < 4 {
		t.Fatalf("SpareBlocks = %d", p.SpareBlocks)
	}
	d := New("ssd", simclock.New(), p)
	if d.Size() != 10<<20 {
		t.Fatalf("Size = %d", d.Size())
	}
	if d.BlockSize() != 128<<10 {
		t.Fatalf("BlockSize = %d", d.BlockSize())
	}
}

func TestSSDWearLeveling(t *testing.T) {
	// Greedy GC over uniform random writes should spread erases: the most
	// worn block must not exceed a few times the mean.
	d, _ := smallSSD(t, 8, 4)
	rng := simclock.NewRNG(77)
	pageSize := int64(d.PageSize())
	pages := int(d.Size() / pageSize)
	buf := make([]byte, pageSize)
	for i := 0; i < pages*10; i++ {
		d.WriteAt(buf, int64(rng.Intn(pages))*pageSize)
	}
	w := d.Wear()
	if w.TotalErases == 0 {
		t.Fatal("no erases")
	}
	mean := float64(w.TotalErases) / 12.0 // 8 exported + 4 spare blocks
	if float64(w.MaxBlockErases) > 6*mean+1 {
		t.Fatalf("max erases %d far above mean %.1f", w.MaxBlockErases, mean)
	}
}
