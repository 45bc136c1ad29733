package core

// The cache-policy zoo: post-paper policies built from the same three
// replacement decisions and two admission checks as the paper's three.
//
//   - TinyLFU: cost-based replacement plus a frequency "doorkeeper" on L2
//     admission — one-hit wonders never reach the flash (Einziger &
//     Friedman's TinyLFU, seeded from the manager's existing decaying
//     termFreq/queryFreq sketches instead of a separate sketch).
//   - BiDi: a bidirectional cache filter between the levels — promotion
//     from SSD to memory and demotion from memory to SSD both gated on
//     repeat hits, so singletons neither pollute L1 nor burn program
//     cycles on L2 (after the multilevel bidirectional filter of Eytan &
//     Friedman; see PAPERS.md).
//
// ARC and 2Q at L1 were measured and removed (DESIGN.md §15): in all 16
// zoo cells they stayed within 0.004 of CBLRU's hit ratio while running
// slower, and they alone needed L1 lifecycle hooks on the list-read path.
//
// All zoo policies keep the Manager's contracts: deterministic decisions
// (point map lookups only — no map iteration), exact accounting under
// injected faults, and the stats≡trace tables of events.go.

import "hybridstore/internal/workload"

// bidiReplacement gates the upward (SSD→memory) flow: an SSD result hit is
// served without L1 promotion until the query has shown repeat demand, and
// a list with no L1 entry yet is only admitted once its term has. The
// downward (memory→SSD) flow is gated by the paired freqGatedAdmission.
// Everything else is the paper's cost-based scheme.
type bidiReplacement struct {
	cbReplacement
}

// PromoteResultToL1 promotes on the query's second SSD hit: queryFreq is
// bumped at the top of every GetResult, so a query being looked up for the
// third time (freq ≥ 3) has hit the SSD copy at least once before.
func (r *bidiReplacement) PromoteResultToL1(qid uint64) bool {
	return r.m.queryFreq[qid] >= 3
}

// AdmitNewL1List admits first-touch L1 inserts only for terms seen at
// least twice; prefix extensions of already-resident lists are always
// allowed (fillL1List never consults this for them).
func (r *bidiReplacement) AdmitNewL1List(t workload.TermID) bool {
	return r.m.termFreq[t] >= 2
}

// freqGatedAdmission is the doorkeeper both TinyLFU and BiDi use on the
// downward path: an item may enter the SSD only once its decayed sketch
// frequency reaches the minimum (2 — i.e. one-hit wonders are rejected).
// Lists additionally pass the paper's TEV check, so the gate tightens
// selection rather than replacing it.
type freqGatedAdmission struct {
	m *Manager
}

func (a *freqGatedAdmission) AdmitList(t workload.TermID, sc int64) bool {
	if a.m.termFreq[t] < 2 {
		a.m.stats.ListsRejectedByAdmission++
		return false
	}
	return !(ev(a.m.termFreq[t], sc) < a.m.cfg.TEV)
}

func (a *freqGatedAdmission) AdmitResult(qid uint64) bool {
	return a.m.queryFreq[qid] >= 2
}
