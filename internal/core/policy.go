package core

// The policy registry: a policy is data.
//
// The paper compares two things, the LRU baseline (§VII) and the cost-based
// family (§VI), and the difference between them is the layout (layout.go):
// whole lists, strict-recency L1 victims and entry-granular SSD writes, or
// Formula-1 prefixes, minimum-EV L1 victims in the replace-first window
// (Fig 12) and a block-aligned log with replaceable state. What a registry
// entry adds on top is three bits: Baseline picks the layout, Static reserves
// the static partition (CBSLRU), Doorkeeper puts a frequency gate in front of
// the block log's L2 admission (TinyLFU). The paper's three policies (LRU,
// CBLRU, CBSLRU) are the first three entries; TinyLFU, the zoo's survivor, is
// the fourth. ARC and 2Q at L1 and the bidirectional cache filter were
// measured and removed (DESIGN.md §15).
//
// Every policy must preserve the Manager's contracts: the invariant checker
// (invariants.go), the stats≡trace pairing (events.go, enforced by the
// divergence test in faults_test.go), deterministic behavior under a fixed
// seed (byte-identical experiment output at any -jobs), and exact
// accounting under injected device faults.

import (
	"fmt"
	"strings"
)

// Policy selects the replacement algorithm family. The constants index
// policyRegistry: a policy's value is its registry position.
type Policy int

const (
	// PolicyLRU is the baseline: strict recency eviction at both levels,
	// entry-granularity SSD writes, whole-list caching, no selection logic.
	PolicyLRU Policy = iota
	// PolicyCBLRU is the paper's cost-based LRU: EV-driven selection,
	// prefix caching sized by Formula 1, block-aligned log writes, and
	// replace-first-region victim choice (Figs 11–13).
	PolicyCBLRU
	// PolicyCBSLRU adds a static partition holding the most efficient
	// entries, populated by query-log analysis and exempt from replacement.
	PolicyCBSLRU
	// PolicyTinyLFU keeps CBLRU replacement but gates L2 admission on the
	// decayed frequency sketches: one-hit wonders never reach the flash.
	PolicyTinyLFU
)

// PolicyInfo describes one registered policy.
type PolicyInfo struct {
	// ID is the Policy constant.
	ID Policy
	// Name is the lowercase parse name (CLI flags, config files).
	Name string
	// Display is the report name (the paper's capitalization).
	Display string
	// Summary is a one-line description for docs and -help output.
	Summary string
	// Baseline selects the entry layout (whole lists in L1, entry-granular
	// SSD writes, §VII) instead of the cost-based family's block log (§VI).
	Baseline bool
	// Static reserves part of each SSD region as a static partition
	// populated by query-log analysis (CBSLRU, §VI-C2).
	Static bool
	// Doorkeeper gates the block log's L2 admission on the decayed frequency
	// sketches (Einziger & Friedman's TinyLFU, seeded from termFreq and
	// queryFreq): an evicted list or result whose count is below 2 never
	// reaches the flash. Lists must still pass the paper's TEV check.
	Doorkeeper bool
}

// policyRegistry holds every known policy, indexed by its Policy constant.
// A fixed array (not init-time side effects) keeps registration order — and
// therefore RegisteredPolicyNames and every error message derived from it
// — deterministic.
var policyRegistry = [...]PolicyInfo{
	PolicyLRU: {
		ID: PolicyLRU, Name: "lru", Display: "LRU",
		Summary:  "recency-only baseline: whole-list caching, entry-granularity SSD writes",
		Baseline: true,
	},
	PolicyCBLRU: {
		ID: PolicyCBLRU, Name: "cblru", Display: "CBLRU",
		Summary: "cost-based LRU: EV selection, prefix caching, block-aligned log writes (paper §VI)",
	},
	PolicyCBSLRU: {
		ID: PolicyCBSLRU, Name: "cbslru", Display: "CBSLRU",
		Summary: "CBLRU plus a static partition pinned by query-log analysis (paper §VI-C2)",
		Static:  true,
	},
	PolicyTinyLFU: {
		ID: PolicyTinyLFU, Name: "tinylfu", Display: "TinyLFU",
		Summary:    "CBLRU replacement with frequency-gated L2 admission from the decaying sketches",
		Doorkeeper: true,
	},
}

// Policies returns every registered policy, in registration order.
func Policies() []PolicyInfo {
	return append([]PolicyInfo(nil), policyRegistry[:]...)
}

// RegisteredPolicyNames returns the parse names of every registered
// policy, in registration order.
func RegisteredPolicyNames() []string {
	names := make([]string, len(policyRegistry))
	for i, info := range policyRegistry {
		names[i] = info.Name
	}
	return names
}

// ParsePolicy maps a policy name (case-insensitive parse name or display
// name) to its Policy constant. The error lists every registered name, so
// it can never go stale as policies are added.
func ParsePolicy(s string) (Policy, error) {
	for _, info := range policyRegistry {
		if strings.EqualFold(s, info.Name) || strings.EqualFold(s, info.Display) {
			return info.ID, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q (want %s)", s, strings.Join(RegisteredPolicyNames(), ", "))
}

// Valid reports whether p is a registered policy. Config validation
// rejects invalid values up front, so the Policy(%d) String fallback is
// unreachable from user input.
func (p Policy) Valid() bool { return p >= 0 && int(p) < len(policyRegistry) }

// String returns the policy's display name from the registry.
func (p Policy) String() string {
	if p.Valid() {
		return policyRegistry[p].Display
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// RequiresTwoLevel reports whether p is only meaningful with an SSD cache
// level (hybrid.Config validation enforces the pairing): exactly the
// policies with a static partition, which lives on the SSD.
func (p Policy) RequiresTwoLevel() bool {
	return p.Valid() && policyRegistry[p].Static
}
