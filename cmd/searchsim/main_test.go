package main

import (
	"testing"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/flashsim"
)

// TestFlagParsers covers the four enum flags searchsim parses itself or
// through core and flashsim: every accepted spelling maps to its constant,
// and a value that is not on the list is an error (main exits 2), never a
// silent default. The same holds for a closed-loop flag given with -serve,
// whose pool has no use for it.
func TestFlagParsers(t *testing.T) {
	policy := func(s string) (any, error) { return core.ParsePolicy(s) }
	mode := func(s string) (any, error) { return parseMode(s) }
	placement := func(s string) (any, error) { return parsePlacement(s) }
	ftl := func(s string) (any, error) { return flashsim.ParseFTL(s) }
	serve := func(s string) (any, error) { return s, serveConflict(map[string]bool{s: true}) }
	for _, c := range []struct {
		flag  string
		parse func(string) (any, error)
		in    string
		want  any // nil: must be rejected
	}{
		{"-policy", policy, "lru", core.PolicyLRU},
		{"-policy", policy, "CBSLRU", core.PolicyCBSLRU},
		{"-policy", policy, "TinyLFU", core.PolicyTinyLFU},
		{"-policy", policy, "bidi", nil},
		{"-mode", mode, "none", hybrid.CacheNone},
		{"-mode", mode, "onelevel", hybrid.CacheOneLevel},
		{"-mode", mode, "TwoLevel", hybrid.CacheTwoLevel},
		{"-mode", mode, "threelevel", nil},
		{"-mode", mode, "", nil},
		{"-index-on", placement, "hdd", hybrid.IndexOnHDD},
		{"-index-on", placement, "SSD", hybrid.IndexOnSSD},
		{"-index-on", placement, "sdd", nil},
		{"-index-on", placement, "", nil},
		{"-ftl", ftl, "pagemap", hybrid.FTLPageMap},
		{"-ftl", ftl, "page-map", hybrid.FTLPageMap},
		{"-ftl", ftl, "blockmap", hybrid.FTLBlockMap},
		{"-ftl", ftl, "Block-Map", hybrid.FTLBlockMap},
		{"-ftl", ftl, "hybridlog", hybrid.FTLHybridLog},
		{"-ftl", ftl, "hybrid-log", hybrid.FTLHybridLog},
		{"-ftl", ftl, "page", nil},
		{"-ftl", ftl, "", nil},
		{"-serve with", serve, "shards", "shards"},
		{"-serve with", serve, "trace", "trace"},
		{"-serve with", serve, "aol", nil},
		{"-serve with", serve, "json", nil},
		{"-serve with", serve, "metrics-every", nil},
	} {
		got, err := c.parse(c.in)
		switch {
		case c.want == nil && err == nil:
			t.Errorf("%s %q accepted as %v, want an error", c.flag, c.in, got)
		case c.want != nil && err != nil:
			t.Errorf("%s %q: %v", c.flag, c.in, err)
		case c.want != nil && got != c.want:
			t.Errorf("%s %q = %v, want %v", c.flag, c.in, got, c.want)
		}
	}
	// The error names every policy that is left, so a stale script learns
	// what to run instead.
	_, err := core.ParsePolicy("bidi")
	if want := `unknown policy "bidi" (want lru, cblru, cbslru, tinylfu)`; err == nil || err.Error() != want {
		t.Errorf("-policy bidi: %v, want %s", err, want)
	}
}
