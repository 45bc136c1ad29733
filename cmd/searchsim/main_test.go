package main

import (
	"testing"

	hybrid "hybridstore"
	"hybridstore/internal/flashsim"
)

// TestFlagParsers covers the three enum flags searchsim parses itself or
// through flashsim: every accepted spelling maps to its constant, and a
// value that is not on the list is an error (main exits 2), never a silent
// default.
func TestFlagParsers(t *testing.T) {
	mode := func(s string) (any, error) { return parseMode(s) }
	placement := func(s string) (any, error) { return parsePlacement(s) }
	ftl := func(s string) (any, error) { return flashsim.ParseFTL(s) }
	for _, c := range []struct {
		flag  string
		parse func(string) (any, error)
		in    string
		want  any // nil: must be rejected
	}{
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
}
