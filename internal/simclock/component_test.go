package simclock

import (
	"testing"
	"time"
)

func TestComponentNames(t *testing.T) {
	want := map[Component]string{
		CompOther:                    "other",
		CompHDDSeek:                  "hdd_seek",
		CompHDDTransfer:              "hdd_transfer",
		CompSSDRead:                  "ssd_read",
		CompSSDProgram:               "ssd_program",
		CompSSDEraseStall:            "ssd_erase_stall",
		CompCPUIntersect:             "cpu_intersect",
		CompCacheBookkeeping:         "cache_bookkeeping",
		Component(NumComponents + 3): "other", // out of range folds to other
	}
	for c, name := range want {
		if got := c.String(); got != name {
			t.Errorf("Component(%d).String() = %q, want %q", c, got, name)
		}
	}
	for c := Component(0); c < NumComponents; c++ {
		back, ok := ComponentByName(c.String())
		if !ok || back != c {
			t.Errorf("ComponentByName(%q) = %v,%v, want %v,true", c.String(), back, ok, c)
		}
	}
	if _, ok := ComponentByName("no_such_component"); ok {
		t.Error("ComponentByName accepted an unknown name")
	}
}

// TestComponentTable is the runtime mirror of the attrib analyzer's
// totality check, the way TestStatsEventTables mirrors statsevent: every
// Component constant must carry a componentTable rationale, the table must
// hold nothing else, and the sentinel must not appear. (tracetool renders
// components by ranging over NumComponents, so its order needs no test.)
func TestComponentTable(t *testing.T) {
	for c := Component(0); c < NumComponents; c++ {
		reason, ok := componentTable[c]
		switch {
		case !ok:
			t.Errorf("component %s (%d) has no componentTable entry", c, c)
		case reason == "":
			t.Errorf("componentTable[%s] has an empty rationale", c)
		}
	}
	if len(componentTable) != int(NumComponents) {
		for c := range componentTable {
			if c >= NumComponents {
				t.Errorf("componentTable names %d, which is not a declared Component", c)
			}
		}
	}
}

func TestOnAdvanceSeesEveryAdvance(t *testing.T) {
	c := New()
	var total [NumComponents]time.Duration
	c.OnAdvance(func(comp Component, d time.Duration) { total[comp] += d })

	start := c.Now()
	c.AdvanceAttr(3*time.Millisecond, CompHDDSeek)
	c.AdvanceAttr(1*time.Millisecond, CompOther)
	c.AdvanceToAttr(c.Now()+2*time.Millisecond, CompSSDEraseStall)
	c.AdvanceToAttr(0, CompSSDEraseStall) // backwards: no movement, no hook
	c.AdvanceAttr(0, CompSSDRead)         // zero: no hook
	elapsed := c.Now() - start

	var sum time.Duration
	for _, d := range total {
		sum += d
	}
	if sum != elapsed {
		t.Fatalf("hook deltas sum to %v, clock elapsed %v", sum, elapsed)
	}
	if total[CompHDDSeek] != 3*time.Millisecond ||
		total[CompOther] != 1*time.Millisecond ||
		total[CompSSDEraseStall] != 2*time.Millisecond ||
		total[CompSSDRead] != 0 {
		t.Fatalf("per-component totals wrong: %v", total)
	}

	// Removing the hook stops deliveries.
	c.OnAdvance(nil)
	c.AdvanceAttr(time.Second, CompHDDSeek)
	if total[CompHDDSeek] != 3*time.Millisecond {
		t.Fatal("hook fired after removal")
	}
}

func TestAdvanceAttrNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative AdvanceAttr did not panic")
		}
	}()
	New().AdvanceAttr(-time.Nanosecond, CompOther)
}
