package core

// Pluggable replacement and admission policies.
//
// The Manager's serving paths are policy-independent plumbing (read
// through the hierarchy, account every byte, keep the allocator honest).
// A policy is three replacement decisions (ReplacementPolicy) and two
// admission checks (AdmissionPolicy); it decides, it never places. Where
// and in what unit data is placed — the baseline's whole lists and
// entry-granular SSD writes, or the cost-based family's Formula-1 prefixes
// in a block-aligned log with replaceable state — is the layout (layout.go),
// chosen once in New from the registry entry's Baseline bit. The three
// policies of the paper (LRU, CBLRU, CBSLRU) are the first three registry
// entries; the zoo's survivors (TinyLFU admission, the bidirectional cache
// filter) are built from the same five decisions.
//
// Every implementation must preserve the Manager's contracts: the
// invariant checker (invariants.go), the stats≡trace pairing
// (events.go, enforced by hybridlint statsevent), deterministic behavior
// under a fixed seed (byte-identical experiment output at any -jobs), and
// exact accounting under injected device faults.

import (
	"fmt"
	"strings"

	"hybridstore/internal/cache"
	"hybridstore/internal/workload"
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
	// PolicyBidi is the bidirectional cache filter: promotion from SSD to
	// memory and demotion from memory to SSD both gated on repeat hits.
	PolicyBidi
)

// ReplacementPolicy is the three replacement decisions of the hierarchy.
// Implementations are created per Manager by the registry factory and are
// not safe for concurrent use, matching the Manager itself.
type ReplacementPolicy interface {
	// ChooseL1ListVictim picks the next L1 inverted-list eviction victim,
	// never returning exclude. Nil means nothing evictable.
	ChooseL1ListVictim(exclude *cache.Entry[*memList]) *cache.Entry[*memList]
	// PromoteResultToL1 reports whether a result served from the SSD is
	// copied up into the L1 result cache (the hybrid scheme's promotion;
	// the bidirectional filter gates it on repeat hits).
	PromoteResultToL1(qid uint64) bool
	// AdmitNewL1List reports whether a list with no L1 entry yet may be
	// inserted into L1 (extensions of an existing prefix are always
	// allowed). The bidirectional filter gates first-touch inserts.
	AdmitNewL1List(t workload.TermID) bool
}

// AdmissionPolicy decides what enters the L2 (SSD) cache. The paper's
// cost-based policies admit by efficiency value (Formula 2 vs TEV);
// TinyLFU-style policies additionally require sketch frequency, keeping
// one-hit wonders off the flash entirely.
type AdmissionPolicy interface {
	// AdmitList decides whether an L1-evicted list prefix (Formula-1 size
	// sc blocks) is flushed into the L2 list region. Returning false
	// discards the list (it stays readable from the backing store).
	AdmitList(t workload.TermID, sc int64) bool
	// AdmitResult decides whether an L1-evicted result entry enters the
	// write buffer for RB assembly.
	AdmitResult(qid uint64) bool
}

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
	// RequiresTwoLevel marks policies meaningless without an SSD level
	// (hybrid.Config validation rejects them in other cache modes).
	RequiresTwoLevel bool
	// Baseline selects the entry layout (whole lists in L1, entry-granular
	// SSD writes, §VII) instead of the cost-based family's block log (§VI).
	Baseline bool
	// Static reserves part of each SSD region as a static partition
	// populated by query-log analysis (CBSLRU, §VI-C2).
	Static bool
	// New builds the policy pair for a manager. Called once per Manager
	// from core.New, after the configuration has been validated.
	New func(m *Manager) (ReplacementPolicy, AdmissionPolicy)
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
		New: func(m *Manager) (ReplacementPolicy, AdmissionPolicy) {
			return &lruReplacement{m: m}, admitAll{}
		},
	},
	PolicyCBLRU: {
		ID: PolicyCBLRU, Name: "cblru", Display: "CBLRU",
		Summary: "cost-based LRU: EV selection, prefix caching, block-aligned log writes (paper §VI)",
		New: func(m *Manager) (ReplacementPolicy, AdmissionPolicy) {
			return &cbReplacement{m: m}, &tevAdmission{m: m}
		},
	},
	PolicyCBSLRU: {
		ID: PolicyCBSLRU, Name: "cbslru", Display: "CBSLRU",
		Summary:          "CBLRU plus a static partition pinned by query-log analysis (paper §VI-C2)",
		RequiresTwoLevel: true,
		Static:           true,
		New: func(m *Manager) (ReplacementPolicy, AdmissionPolicy) {
			return &cbReplacement{m: m}, &tevAdmission{m: m}
		},
	},
	PolicyTinyLFU: {
		ID: PolicyTinyLFU, Name: "tinylfu", Display: "TinyLFU",
		Summary: "CBLRU replacement with frequency-gated L2 admission from the decaying sketches",
		New: func(m *Manager) (ReplacementPolicy, AdmissionPolicy) {
			return &cbReplacement{m: m}, &freqGatedAdmission{m: m}
		},
	},
	PolicyBidi: {
		ID: PolicyBidi, Name: "bidi", Display: "BiDi",
		Summary:          "bidirectional cache filter: promote/demote between levels gated on repeat hits",
		RequiresTwoLevel: true,
		New: func(m *Manager) (ReplacementPolicy, AdmissionPolicy) {
			return &bidiReplacement{cbReplacement{m: m}}, &freqGatedAdmission{m: m}
		},
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
// level (hybrid.Config validation enforces the pairing).
func (p Policy) RequiresTwoLevel() bool {
	return p.Valid() && policyRegistry[p].RequiresTwoLevel
}

// ---------------------------------------------------------------------------
// The paper's policies: LRU baseline and the cost-based family.

// lruReplacement is the baseline's decisions (§VII): strict-recency L1
// victims, everything promoted and admitted. Its placement — whole lists,
// entry-granularity SSD writes — is entryLayout.
type lruReplacement struct{ m *Manager }

// ChooseL1ListVictim picks the least-recently-used entry, skipping exclude.
func (r *lruReplacement) ChooseL1ListVictim(exclude *cache.Entry[*memList]) *cache.Entry[*memList] {
	var v *cache.Entry[*memList]
	r.m.ic.Ascend(func(e *cache.Entry[*memList]) bool {
		if e != exclude {
			v = e
			return false
		}
		return true
	})
	return v
}

func (r *lruReplacement) PromoteResultToL1(uint64) bool       { return true }
func (r *lruReplacement) AdmitNewL1List(workload.TermID) bool { return true }

// cbReplacement is the paper's cost-based replacement (CBLRU and CBSLRU):
// minimum-EV victim choice inside the replace-first window (Fig 12), every
// SSD hit promoted. It is also the base the bidirectional filter embeds.
type cbReplacement struct{ m *Manager }

// ChooseL1ListVictim picks the minimum-EV entry within the replace-first
// window (Fig 12), skipping exclude.
func (r *cbReplacement) ChooseL1ListVictim(exclude *cache.Entry[*memList]) *cache.Entry[*memList] {
	m := r.m
	window := m.cfg.WindowW
	if window < 8 {
		window = 8
	}
	var best *cache.Entry[*memList]
	bestEV := 0.0
	for _, e := range m.ic.TailWindow(window + 1) { // +1 headroom for exclude
		if e == exclude {
			continue
		}
		ml := e.Value
		v := ev(m.termFreq[ml.term], m.scBlocks(int64(len(ml.prefix)), m.pu(ml.term)))
		if best == nil || v < bestEV {
			best, bestEV = e, v
		}
	}
	return best
}

func (r *cbReplacement) PromoteResultToL1(uint64) bool       { return true }
func (r *cbReplacement) AdmitNewL1List(workload.TermID) bool { return true }

// admitAll is the baseline admission: everything evicted from L1 goes to
// the SSD (no selection — the write storm the paper's selection avoids).
type admitAll struct{}

func (admitAll) AdmitList(workload.TermID, int64) bool { return true }
func (admitAll) AdmitResult(uint64) bool               { return true }

// tevAdmission is the paper's selection (§VI-A): an evicted list is
// admitted when its efficiency value EV = Freq/SC (Formula 2) reaches the
// TEV threshold; results are always admitted (the paper buffers every
// evicted result entry for RB assembly).
type tevAdmission struct{ m *Manager }

func (a *tevAdmission) AdmitList(t workload.TermID, sc int64) bool {
	return !(ev(a.m.termFreq[t], sc) < a.m.cfg.TEV)
}

func (a *tevAdmission) AdmitResult(uint64) bool { return true }
