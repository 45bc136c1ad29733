package core

import (
	"reflect"
	"testing"

	"hybridstore/internal/storage"
)

// TestStatsEventTables is the runtime mirror of the statsevent analyzer's
// totality check: every Stats field appears in exactly one of
// statsEventPairs / statsUnpaired, neither table names a stale field, and
// every unpaired field carries a rationale.
func TestStatsEventTables(t *testing.T) {
	st := reflect.TypeOf(Stats{})
	fields := map[string]bool{}
	for i := 0; i < st.NumField(); i++ {
		name := st.Field(i).Name
		fields[name] = true
		_, paired := statsEventPairs[name]
		reason, unpaired := statsUnpaired[name]
		switch {
		case paired && unpaired:
			t.Errorf("Stats.%s is in both statsEventPairs and statsUnpaired", name)
		case !paired && !unpaired:
			t.Errorf("Stats.%s is in neither statsEventPairs nor statsUnpaired", name)
		case unpaired && reason == "":
			t.Errorf("statsUnpaired[%s] has an empty rationale", name)
		}
	}
	for name := range statsEventPairs {
		if !fields[name] {
			t.Errorf("statsEventPairs names %s, which is not a Stats field", name)
		}
	}
	for name := range statsUnpaired {
		if !fields[name] {
			t.Errorf("statsUnpaired names %s, which is not a Stats field", name)
		}
	}
}

// TestStatsEventPairsReproduceTotals runs a traced workload-free sanity
// check on the pairing semantics for the counters whose events carry a
// 1:1 count contract (see the EventKind docs): summing events of the
// paired kind must reproduce the counter deltas for the error path, the
// query path and the probe path. The full per-policy divergence tests in
// faults_test.go exercise the same contract under injected faults; this
// test pins the table itself to the emit sites.
//
// EvResultFlush fires once per result write to the device: an assembled
// RB, a CBSLRU pin or an LRU entry. Its bytes therefore sum to
// ResultBytesToSSD and its count is every cache-SSD write that is not a
// list write, while RBFlushes counts only the RBs among them.
func TestStatsEventPairsReproduceTotals(t *testing.T) {
	m := newFixture(t, testConfig(PolicyLRU)).m
	counts := map[EventKind]int64{}
	m.SetEventSink(func(e Event) { counts[e.Kind]++ })

	m.BeginQuery(1)
	m.EndQuery(10)
	m.BeginQuery(2)
	m.EndQuery(20)

	st := m.Stats()
	if got, want := counts[EvQueryEnd], st.Queries; got != want {
		t.Errorf("EvQueryEnd count = %d, Stats.Queries = %d", got, want)
	}
	var sits int64
	for _, c := range st.Situations.Counts {
		sits += c
	}
	if got := counts[EvQueryEnd]; got != sits {
		t.Errorf("EvQueryEnd count = %d, situation tally total = %d", got, sits)
	}

	for _, policy := range []Policy{PolicyCBSLRU, PolicyLRU} {
		f := newFixture(t, testConfig(policy))
		var flushes, flushBytes int64
		f.m.SetEventSink(func(e Event) {
			if e.Kind == EvResultFlush {
				flushes++
				flushBytes += e.Bytes
			}
		})
		size := f.m.Config().ResultEntryBytes
		if policy == PolicyCBSLRU && (!f.m.PinResult(500, entryOf(500, 0x55, size)) || !f.m.PinList(5)) {
			t.Fatal("CBSLRU pin failed")
		}
		for q := uint64(1); q <= 20; q++ {
			if err := f.m.PutResult(q, entryOf(q, byte(q), size)); err != nil {
				t.Fatal(err)
			}
		}
		st := f.m.Stats()
		if flushBytes != st.ResultBytesToSSD {
			t.Errorf("%s: Σ EvResultFlush.Bytes = %d, Stats.ResultBytesToSSD = %d", policy, flushBytes, st.ResultBytesToSSD)
		}
		writes := f.ssd.(*storage.MemDevice).Stats().Writes
		if want := writes - st.ListWritesToSSD; flushes != want {
			t.Errorf("%s: %d EvResultFlush events, %d cache-SSD writes − %d list writes = %d",
				policy, flushes, writes, st.ListWritesToSSD, want)
		}
		if flushes <= st.RBFlushes {
			t.Errorf("%s: %d EvResultFlush events, %d RBFlushes: the pin or entry writes are missing",
				policy, flushes, st.RBFlushes)
		}
	}
}
