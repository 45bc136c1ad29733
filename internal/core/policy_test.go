package core

import (
	"strings"
	"testing"

	"hybridstore/internal/workload"
)

// allPolicies returns every registered policy ID, registry order, so the
// behavioral test matrices cover new policies automatically.
func allPolicies() []Policy {
	ps := make([]Policy, 0, len(policyRegistry))
	for _, info := range policyRegistry {
		ps = append(ps, info.ID)
	}
	return ps
}

func TestParsePolicyRoundTrips(t *testing.T) {
	for _, info := range Policies() {
		for _, s := range []string{info.Name, info.Display, strings.ToUpper(info.Name)} {
			got, err := ParsePolicy(s)
			if err != nil {
				t.Fatalf("ParsePolicy(%q): %v", s, err)
			}
			if got != info.ID {
				t.Fatalf("ParsePolicy(%q) = %v, want %v", s, got, info.ID)
			}
		}
	}
}

func TestParsePolicyUnknownListsAllNames(t *testing.T) {
	_, err := ParsePolicy("clockpro")
	if err == nil {
		t.Fatal("accepted unknown policy")
	}
	for _, name := range RegisteredPolicyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not mention registered policy %q", err, name)
		}
	}
}

func TestPolicyStringNeverFallsBack(t *testing.T) {
	// Every policy reachable from user input (i.e. every registered one)
	// must render a real name, not the Policy(%d) debug fallback.
	for _, p := range allPolicies() {
		if strings.HasPrefix(p.String(), "Policy(") {
			t.Fatalf("registered policy %d renders as %q", p, p.String())
		}
		if !p.Valid() {
			t.Fatalf("registered policy %v not Valid()", p)
		}
	}
	if Policy(99).String() != "Policy(99)" {
		t.Fatalf("unregistered policy renders %q", Policy(99).String())
	}
	if Policy(99).Valid() {
		t.Fatal("unregistered policy reports Valid()")
	}
}

func TestPolicyTraits(t *testing.T) {
	// The registry's three data bits are load-bearing: Baseline picks the
	// layout, Static the partition, Doorkeeper the block log's frequency gate
	// — together they encode the exact behavior the byte-identity goldens pin.
	cases := []struct {
		policy                       Policy
		baseline, static, doorkeeper bool
	}{
		{PolicyLRU, true, false, false},
		{PolicyCBLRU, false, false, false},
		{PolicyCBSLRU, false, true, false},
		{PolicyTinyLFU, false, false, true},
	}
	if len(cases) != len(policyRegistry) {
		t.Fatalf("%d cases for %d registered policies", len(cases), len(policyRegistry))
	}
	for _, c := range cases {
		t.Run(c.policy.String(), func(t *testing.T) {
			info := policyRegistry[c.policy]
			if info.Baseline != c.baseline || info.Static != c.static || info.Doorkeeper != c.doorkeeper {
				t.Errorf("registry bits Baseline=%v Static=%v Doorkeeper=%v", info.Baseline, info.Static, info.Doorkeeper)
			}
			f := newFixture(t, testConfig(c.policy))
			if _, entry := f.m.lay.(entryLayout); entry != c.baseline {
				t.Errorf("manager runs layout %T", f.m.lay)
			}
			if f.m.UsesStaticPartition() != c.static {
				t.Errorf("Manager.UsesStaticPartition = %v", f.m.UsesStaticPartition())
			}
			if c.policy.RequiresTwoLevel() != c.static {
				t.Errorf("RequiresTwoLevel = %v, want Static", c.policy.RequiresTwoLevel())
			}
			// A term never seen before: the doorkeeper rejects its evicted
			// list, TEV selection accepts it (TEV=0 in testConfig).
			f.m.lay.flushList(&memList{term: 150, prefix: make([]byte, 4<<10)})
			if rejected := f.m.Stats().ListsRejectedByAdmission == 1; rejected != c.doorkeeper {
				t.Errorf("flushList(cold term) rejected = %v", rejected)
			}
		})
	}
}

// TestRegistryIndexedByPolicy: a Policy constant is its registry position,
// which is what lets Valid, String and core.New index instead of search.
func TestRegistryIndexedByPolicy(t *testing.T) {
	for i, info := range policyRegistry {
		if info.ID != Policy(i) {
			t.Errorf("policyRegistry[%d].ID = %d", i, info.ID)
		}
		if info.Name == "" || info.Display == "" {
			t.Errorf("policyRegistry[%d] incomplete: %+v", i, info)
		}
	}
}

// TestFreqGatedAdmissionWarmsUp probes the doorkeeper at its two sites, the
// block log's list flush and result eviction, below and at the threshold.
func TestFreqGatedAdmissionWarmsUp(t *testing.T) {
	m := newFixture(t, testConfig(PolicyTinyLFU)).m
	term := workload.TermID(42)
	flush := func() { m.lay.flushList(&memList{term: term, prefix: make([]byte, 4<<10)}) }
	flush()
	if m.icDyn[term] != nil || m.stats.ListsRejectedByAdmission != 1 || m.stats.ListsDiscarded != 1 {
		t.Fatal("admitted a never-seen term")
	}
	m.termFreq[term] = 2
	flush()
	if m.icDyn[term] == nil || m.stats.ListsRejectedByAdmission != 1 {
		t.Fatal("rejected a term at the frequency threshold")
	}
	m.lay.evictResult(7, &memResult{data: m.entryBuf()})
	if len(m.writeBuf) != 0 || m.stats.ResultsRejectedByAdmission != 1 {
		t.Fatal("admitted a never-seen query result")
	}
	m.queryFreq[7] = 2
	m.lay.evictResult(7, &memResult{data: m.entryBuf()})
	if len(m.writeBuf) != 1 || m.stats.ResultsRejectedByAdmission != 1 {
		t.Fatal("rejected a query at the frequency threshold")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
