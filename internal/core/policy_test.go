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
	// The registry's two data bits are load-bearing: Baseline picks the
	// layout, Static the partition — together they encode the exact
	// behavior the byte-identity goldens pin.
	cases := []struct {
		policy                              Policy
		baseline, static                    bool
		requiresTwoLevel, rejectsSingletons bool
	}{
		{PolicyLRU, true, false, false, false},
		{PolicyCBLRU, false, false, false, false},
		{PolicyCBSLRU, false, true, true, false},
		{PolicyTinyLFU, false, false, false, true},
		{PolicyBidi, false, false, true, true},
	}
	if len(cases) != len(policyRegistry) {
		t.Fatalf("%d cases for %d registered policies", len(cases), len(policyRegistry))
	}
	for _, c := range cases {
		t.Run(c.policy.String(), func(t *testing.T) {
			info := policyRegistry[c.policy]
			if info.Baseline != c.baseline || info.Static != c.static {
				t.Errorf("registry bits Baseline=%v Static=%v", info.Baseline, info.Static)
			}
			f := newFixture(t, testConfig(c.policy))
			if _, entry := f.m.lay.(entryLayout); entry != c.baseline {
				t.Errorf("manager runs layout %T", f.m.lay)
			}
			if f.m.UsesStaticPartition() != c.static {
				t.Errorf("Manager.UsesStaticPartition = %v", f.m.UsesStaticPartition())
			}
			if c.policy.RequiresTwoLevel() != c.requiresTwoLevel {
				t.Errorf("RequiresTwoLevel = %v", c.policy.RequiresTwoLevel())
			}
			// A term never seen before: frequency-gated admission rejects it,
			// the TEV-style admissions accept it (TEV=0 in testConfig).
			if got := f.m.adm.AdmitList(workload.TermID(150), 1); got == c.rejectsSingletons {
				t.Errorf("AdmitList(cold term) = %v", got)
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
		if info.New == nil || info.Name == "" || info.Display == "" {
			t.Errorf("policyRegistry[%d] incomplete: %+v", i, info)
		}
	}
}

func TestFreqGatedAdmissionWarmsUp(t *testing.T) {
	f := newFixture(t, testConfig(PolicyTinyLFU))
	term := workload.TermID(42)
	if f.m.adm.AdmitList(term, 1) {
		t.Fatal("admitted a never-seen term")
	}
	f.m.stats.ListsRejectedByAdmission = 0 // only count the probe above
	f.m.termFreq[term] = 2
	if !f.m.adm.AdmitList(term, 1) {
		t.Fatal("rejected a term at the frequency threshold")
	}
	if f.m.adm.AdmitResult(7) {
		t.Fatal("admitted a never-seen query result")
	}
	f.m.queryFreq[7] = 2
	if !f.m.adm.AdmitResult(7) {
		t.Fatal("rejected a query at the frequency threshold")
	}
}

func TestBidiPromotionThresholds(t *testing.T) {
	f := newFixture(t, testConfig(PolicyBidi))
	r := f.m.repl
	if r.PromoteResultToL1(5) {
		t.Fatal("promoted a cold query's result")
	}
	f.m.queryFreq[5] = 3
	if !r.PromoteResultToL1(5) {
		t.Fatal("did not promote a hot query's result")
	}
	if r.AdmitNewL1List(9) {
		t.Fatal("admitted a cold term's list into L1")
	}
	f.m.termFreq[9] = 2
	if !r.AdmitNewL1List(9) {
		t.Fatal("rejected a warm term's list from L1")
	}
}
