package flashsim

import (
	"fmt"
	"strings"
)

// FTLKind selects the flash translation layer of a drive (§II-A).
type FTLKind int

// The FTL families the paper surveys. It baselines on the ideal page-mapped
// FTL; the block-mapped and hybrid log-block alternatives are available
// for ablation.
const (
	FTLPageMap FTLKind = iota
	FTLBlockMap
	FTLHybridLog
)

// ftls is the one list of FTLs, indexed by kind: printed name, the fewest
// spare blocks its reclamation can make progress with (and what for), and
// the constructor of its mapping tables over a drive's shell.
var ftls = [...]struct {
	name     string
	minSpare int
	spareFor string
	build    func(*SSD) ftl
}{
	FTLPageMap:   {"page-map", 2, "GC progress: a frontier and a relocation target", newPageMap},
	FTLBlockMap:  {"block-map", 1, "the block a merge copies into", newBlockMap},
	FTLHybridLog: {"hybrid-log", 3, "a log block and merge headroom", newHybridLog},
}

// Valid reports whether k names an FTL.
func (k FTLKind) Valid() bool { return k >= 0 && int(k) < len(ftls) }

// String names the FTL.
func (k FTLKind) String() string {
	if !k.Valid() {
		return fmt.Sprintf("FTLKind(%d)", int(k))
	}
	return ftls[k].name
}

// ParseFTL resolves an FTL by its printed name, case-insensitively and with
// the hyphen optional ("page-map" or "pagemap").
func ParseFTL(s string) (FTLKind, error) {
	squash := func(s string) string { return strings.ReplaceAll(strings.ToLower(s), "-", "") }
	want := squash(s)
	names := make([]string, len(ftls))
	for k, f := range ftls {
		if squash(f.name) == want {
			return FTLKind(k), nil
		}
		names[k] = f.name
	}
	return 0, fmt.Errorf("unknown ftl %q (want %s)", s, strings.Join(names, ", "))
}

// unmapped returns a mapping table of n entries, all -1.
func unmapped(n int) []int32 {
	t := make([]int32, n)
	for i := range t {
		t[i] = -1
	}
	return t
}

// blockTable is a block-granular mapping table (the block-map's, and the
// hybrid log's for its data blocks): logical block -> physical block, -1
// unmapped.
type blockTable []int32

// home returns the one place the table allows logical page lp: its fixed
// offset inside its logical block's physical block (ppb pages each), or -1
// while that block is unmapped.
func (t blockTable) home(lp, ppb int) int32 {
	pb := t[lp/ppb]
	if pb < 0 {
		return -1
	}
	return pb*int32(ppb) + int32(lp%ppb)
}
