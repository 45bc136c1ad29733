package core

// The L1 list victim rule of each layout, pinned through makeRoomIC (its one
// caller) so the test does not care which type carries the rule: strict LRU
// for the baseline, the minimum efficiency value inside the replace-first
// window for the cost-based family (Fig 12).

import (
	"testing"

	"hybridstore/internal/cache"
	"hybridstore/internal/workload"
)

// l1Victim fills L1 with one 4 KiB entry per element of freqs — term i the
// i-th inserted, so term 0 is least recent — with termFreq[i] = freqs[i],
// asks makeRoomIC for one byte more than is free while sparing term exclude
// (-1: none), and returns the one term it evicted, or -1 for none.
func l1Victim(t *testing.T, policy Policy, windowW int, freqs []int64, exclude int) int {
	t.Helper()
	cfg := testConfig(policy)
	cfg.WindowW = windowW
	cfg.SSDResultBytes, cfg.SSDListBytes = 0, 0 // an evicted list is only discarded
	m := newFixture(t, cfg).m
	const size = 4 << 10 // one block or less: every entry's SC is 1, its EV its frequency
	var spare *cache.Entry[*memList]
	for i, freq := range freqs {
		term := workload.TermID(i)
		e := m.ic.Put(uint64(term), size, &memList{term: term, prefix: make([]byte, size)})
		m.termFreq[term] = freq
		if i == exclude {
			spare = e
		}
	}
	m.makeRoomIC(m.ic.Free()+1, spare)
	victim := -1
	for i := range freqs {
		if _, ok := m.ic.Peek(uint64(i)); ok {
			continue
		}
		if victim >= 0 {
			t.Fatalf("evicted terms %d and %d, want one", victim, i)
		}
		victim = i
	}
	return victim
}

func TestL1ListVictimRule(t *testing.T) {
	// Twelve entries, least recent first. With W = 5 the window is clamped to
	// 8, plus one entry of headroom for exclude: terms 0–8. The minimum EV of
	// the window is term 8's; term 9's is lower still but outside it.
	window := []int64{10, 10, 10, 5, 10, 10, 10, 10, 2, 1, 10, 10}
	cases := []struct {
		name    string
		policy  Policy
		windowW int
		freqs   []int64
		exclude int
		want    int
	}{
		{"lru_least_recent", PolicyLRU, 5, []int64{100, 1, 1}, -1, 0},
		{"lru_skips_exclude", PolicyLRU, 5, []int64{100, 1, 1}, 0, 1},
		{"lru_only_exclude", PolicyLRU, 5, []int64{1}, 0, -1},
		{"cb_min_ev_in_clamped_window", PolicyCBLRU, 5, window, -1, 8},
		{"cb_skips_exclude", PolicyCBLRU, 5, window, 8, 3},
		{"cb_wide_window", PolicyCBLRU, 12, window, -1, 9},
		{"cb_ties_least_recent", PolicyCBLRU, 5, []int64{3, 3, 3}, -1, 0},
		{"cb_only_exclude", PolicyCBLRU, 5, []int64{1}, 0, -1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := l1Victim(t, c.policy, c.windowW, c.freqs, c.exclude); got != c.want {
				t.Fatalf("victim = term %d, want %d", got, c.want)
			}
		})
	}
}
