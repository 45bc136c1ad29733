// Package core implements the paper's contribution: the two-level
// (memory + SSD) cache manager for search engines, with its three policy
// pillars — data selection (Formulas 1–2), log-based data placement
// (result blocks, write buffer) and cost-based data replacement (CBLRU and
// CBSLRU) — plus the plain LRU baseline the paper compares against.
//
// The Manager sits between the query engine and the storage devices: it
// implements engine.ListSource for inverted-list reads and a result-cache
// API for whole query results, exactly the two cached data types of §VI.
package core

import (
	"fmt"
	"strings"
	"time"

	"hybridstore/internal/workload"
)

// Config sizes and tunes the cache hierarchy.
type Config struct {
	// Policy selects the replacement/admission policy pair; see the
	// registry in policy.go (ParsePolicy, RegisteredPolicyNames).
	Policy Policy

	// MemResultBytes is the L1 result-cache capacity ("L1 RC").
	MemResultBytes int64
	// MemListBytes is the L1 inverted-list-cache capacity.
	MemListBytes int64
	// SSDResultBytes is the L2 result-cache region on the SSD; 0 disables
	// the L2 result cache.
	SSDResultBytes int64
	// SSDListBytes is the L2 inverted-list region on the SSD; 0 disables it.
	SSDListBytes int64

	// BlockBytes is the SSD block size SB of Formula 1 (paper: 128 KB).
	BlockBytes int64
	// ResultEntryBytes is the fixed serialized result-entry size
	// (paper: ~20 KB → 6 entries per 128 KB result block).
	ResultEntryBytes int64
	// WindowW is the replace-first region size in entries (Figs 11–13).
	WindowW int
	// TEV is the efficiency-value threshold of §VI-A: evicted lists with
	// EV = Freq/SC below TEV are discarded instead of flushed to SSD.
	TEV float64
	// StaticFraction is the share of each SSD region CBSLRU pins
	// statically (ignored by other policies).
	StaticFraction float64
	// PrefetchQuantum rounds the cost-based policies' L1 prefix up to this
	// many bytes by streaming ahead on the (already positioned) disk head
	// after a tail miss. Early-termination points vary slightly between
	// queries sharing a term; without readahead every repeat query pays a
	// full random seek for a few-KB tail. Negative disables (ablation).
	// Default 32 KiB.
	PrefetchQuantum int64

	// ResultTTL and ListTTL enable the paper's dynamic scenario (§IV-B,
	// future work): cached entries older than their TTL (in simulated
	// time) are treated as expired and recomputed from the backing store.
	// Zero means the static scenario — entries never expire. Statically
	// pinned CBSLRU entries are exempt (the paper refreshes the static
	// partition offline).
	ResultTTL time.Duration
	ListTTL   time.Duration

	// BreakerThreshold trips the SSD circuit breaker after this many
	// consecutive SSD operation failures: until breakerCooldown expires the
	// manager serves around the L2 tier entirely (reads go to the backing
	// store, flushes are dropped with accounting) instead of hammering a
	// failing device. Zero selects the default (8); negative disables the
	// breaker.
	BreakerThreshold int

	// FreqCap bounds the Freq maps behind Formula 2 (per-term and per-query
	// access counts). When a map exceeds the cap, all counts are halved and
	// zeros pruned until it fits — a decayed frequency sketch with stable
	// memory under unbounded distinct keys, preserving the EV = Freq/SC
	// ordering (uniform decay rescales every EV by the same factor). Zero
	// selects the default (1<<16 entries); negative disables bounding.
	FreqCap int

	// PU supplies the per-term utilization rate of Formula 1. Nil selects
	// the measured-PU tracker fed by recorded executions.
	PU func(t workload.TermID) float64
}

// DefaultConfig returns the paper's evaluation shape: 20% of memory for
// results, 80% for lists (§VII-A), SSD result region 10× and list region
// 100× their memory counterparts (Fig 16), W = 5, 128 KB blocks, 20 KB
// result entries.
func DefaultConfig(memBytes int64) Config {
	memRC := memBytes / 5
	memIC := memBytes - memRC
	return Config{
		Policy:           PolicyCBLRU,
		MemResultBytes:   memRC,
		MemListBytes:     memIC,
		SSDResultBytes:   10 * memRC,
		SSDListBytes:     100 * memIC,
		BlockBytes:       128 << 10,
		ResultEntryBytes: 20 << 10,
		WindowW:          5,
		TEV:              0.5,
		StaticFraction:   0.5,
	}
}

// Effective returns the configuration a manager built from c runs with:
// defaults filled in, SSD regions rounded up to whole blocks. It is for
// reading (device geometry has to agree with it); hand New the original.
func (c Config) Effective() Config {
	c.fillDefaults()
	return c
}

func (c *Config) fillDefaults() {
	if c.BlockBytes <= 0 {
		c.BlockBytes = 128 << 10
	}
	if c.ResultEntryBytes <= 0 {
		c.ResultEntryBytes = 20 << 10
	}
	if c.WindowW <= 0 {
		c.WindowW = 5
	}
	if c.StaticFraction <= 0 || c.StaticFraction >= 1 {
		c.StaticFraction = 0.5
	}
	if c.PrefetchQuantum == 0 {
		c.PrefetchQuantum = 32 << 10
	}
	if c.PrefetchQuantum < 0 { // explicit opt-out
		c.PrefetchQuantum = 0
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 8
	}
	if c.FreqCap == 0 {
		c.FreqCap = 1 << 16
	}
	if c.FreqCap < 0 { // explicit opt-out
		c.FreqCap = 0
	}
	// SSD regions operate on whole blocks; round them up so region bases
	// and extents stay block-aligned on the device.
	if c.SSDResultBytes > 0 {
		c.SSDResultBytes = (c.SSDResultBytes + c.BlockBytes - 1) / c.BlockBytes * c.BlockBytes
	}
	if c.SSDListBytes > 0 {
		c.SSDListBytes = (c.SSDListBytes + c.BlockBytes - 1) / c.BlockBytes * c.BlockBytes
	}
}

// Validate reports configuration errors that would make the hierarchy
// unbuildable.
func (c Config) Validate() error {
	switch {
	case c.MemResultBytes <= 0:
		return fmt.Errorf("core: MemResultBytes = %d", c.MemResultBytes)
	case c.MemListBytes <= 0:
		return fmt.Errorf("core: MemListBytes = %d", c.MemListBytes)
	case c.SSDResultBytes < 0 || c.SSDListBytes < 0:
		return fmt.Errorf("core: negative SSD region")
	case !c.Policy.Valid():
		return fmt.Errorf("core: unknown policy %d (want %s)",
			c.Policy, strings.Join(RegisteredPolicyNames(), ", "))
	}
	if c.SSDResultBytes > 0 && c.SSDResultBytes < c.BlockBytes {
		return fmt.Errorf("core: SSD result region %d below one block", c.SSDResultBytes)
	}
	if c.SSDListBytes > 0 && c.SSDListBytes < c.BlockBytes {
		return fmt.Errorf("core: SSD list region %d below one block", c.SSDListBytes)
	}
	if c.MemResultBytes < c.ResultEntryBytes {
		return fmt.Errorf("core: L1 RC %d cannot hold one %d-byte entry",
			c.MemResultBytes, c.ResultEntryBytes)
	}
	return nil
}
