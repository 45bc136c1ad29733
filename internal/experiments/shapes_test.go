package experiments

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"hybridstore/internal/core"
	"hybridstore/internal/flashsim"
)

// parsedTable is one metrics.Table read back from an experiment's stdout.
type parsedTable struct {
	text string // as printed, for failure messages
	cols map[string]int
	rows [][]string
}

var cellGap = regexp.MustCompile(`\s{2,}`)

// parseTables finds every table in out: a header line, a rule of dashes,
// then rows until the first line that does not have the header's cells.
func parseTables(out string) []parsedTable {
	var tabs []parsedTable
	lines := strings.Split(out, "\n")
	for i := 1; i < len(lines); i++ {
		if !strings.HasPrefix(lines[i], "--") || strings.Trim(lines[i], "- ") != "" {
			continue
		}
		header := cellGap.Split(lines[i-1], -1)
		tb := parsedTable{cols: make(map[string]int)}
		for c, name := range header {
			tb.cols[name] = c
		}
		end := i + 1
		for ; end < len(lines); end++ {
			cells := cellGap.Split(lines[end], -1)
			if lines[end] == "" || len(cells) != len(header) {
				break
			}
			tb.rows = append(tb.rows, cells)
		}
		tb.text = strings.Join(lines[i-1:end], "\n")
		tabs = append(tabs, tb)
	}
	return tabs
}

// cell returns the named column of a row.
func (tb parsedTable) cell(t *testing.T, row []string, col string) string {
	t.Helper()
	c, ok := tb.cols[col]
	if !ok {
		t.Fatalf("no column %q in\n%s", col, tb.text)
	}
	return row[c]
}

// num parses the named column of a row as a number.
func (tb parsedTable) num(t *testing.T, row []string, col string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tb.cell(t, row, col), 64)
	if err != nil {
		t.Fatalf("column %q: %v in\n%s", col, err, tb.text)
	}
	return v
}

// TestPaperShapes runs table1, fig14b and fig16–fig19 once and asserts, from
// the printed tables, the orderings the paper's argument rests on: a query
// served from the SSD cache costs what flash costs and far less than one
// served from the HDD, the two-level cache beats the one-level cache it
// extends, and the cost-based policies beat LRU in response time (the
// headline, Fig 17), hit ratio and block erasures.
func TestPaperShapes(t *testing.T) { paperShapes(t, SmallScale()) }

// raceDetector is set in race builds (race_test.go).
var raceDetector bool

// TestPaperShapesFullScale asserts the same orderings at FullScale, the scale
// EXPERIMENTS.md reports (about 10 s on two cores: every distinct execution
// is scored once, DESIGN §8). Under the race detector the sweep takes about
// 28 times as long, past the package timeout of CI's -count=3 race job, and
// it exercises no concurrency TestPaperShapes does not, so it is skipped
// there.
func TestPaperShapesFullScale(t *testing.T) {
	if raceDetector {
		t.Skip("FullScale under the race detector: TestPaperShapes runs the same code at SmallScale")
	}
	paperShapes(t, FullScale())
}

func paperShapes(t *testing.T, sc Scale) {
	sc.Jobs = 2
	tables := func(t *testing.T, id string, want int) []parsedTable {
		t.Helper()
		out := render(t, id, sc)
		tabs := parseTables(out)
		if len(tabs) != want {
			t.Fatalf("%s printed %d tables, want %d:\n%s", id, len(tabs), want, out)
		}
		return tabs
	}

	t.Run("table1", func(t *testing.T) {
		tb := tables(t, "table1", 1)[0]
		cost := make(map[string]time.Duration)
		for _, row := range tb.rows {
			d, err := time.ParseDuration(tb.cell(t, row, "T_i"))
			if err != nil {
				t.Fatalf("%v in\n%s", err, tb.text)
			}
			cost[tb.cell(t, row, "situation")] = d
		}
		for _, s := range []string{"S1", "S2", "S5"} {
			if cost[s] == 0 {
				t.Fatalf("situation %s did not occur:\n%s", s, tb.text)
			}
		}
		// The HDD side of the comparison is the cheapest situation that read
		// any list bytes from the disk: with sub-block lists packed, queries
		// whose lists all come from the HDD (S9) are under 1 % at small scale
		// and do not occur at full scale.
		var hdd time.Duration
		for _, s := range []string{"S6", "S7", "S8", "S9"} {
			if cost[s] > 0 && (hdd == 0 || cost[s] < hdd) {
				hdd = cost[s]
			}
		}
		if hdd == 0 {
			t.Fatalf("no situation read the HDD:\n%s", tb.text)
		}
		flash := flashsim.DefaultParams(1 << 20)
		entryRead := time.Duration(sc.cacheConfig(core.PolicyCBSLRU).ResultEntryBytes/int64(flash.PageSize)) * flashsim.TablePageRead
		if cost["S2"] > 2*entryRead {
			t.Errorf("S2 = %v, over twice the %v of flash page reads a result entry takes:\n%s", cost["S2"], entryRead, tb.text)
		}
		if cost["S5"] >= hdd/4 {
			t.Errorf("S5 = %v is not under a quarter of the cheapest HDD situation's %v:\n%s", cost["S5"], hdd, tb.text)
		}
		if !(cost["S1"] < cost["S2"] && cost["S2"] < cost["S5"] && cost["S5"] < hdd) {
			t.Errorf("want T(S1) < T(S2) < T(S5) < T(cheapest of S6..S9), got %v, %v, %v, %v:\n%s",
				cost["S1"], cost["S2"], cost["S5"], hdd, tb.text)
		}
	})

	t.Run("fig16", func(t *testing.T) {
		tb := tables(t, "fig16", 2)[0] // response time; the second is throughput
		for _, row := range tb.rows {
			ri, r, one := tb.num(t, row, "2LC(RI)-HDD"), tb.num(t, row, "2LC(R)-HDD"), tb.num(t, row, "1LC(R)-HDD")
			if !(ri < r && r < one) {
				t.Errorf("%s docs: want 2LC(RI) < 2LC(R) < 1LC(R)-HDD, got %v, %v, %v:\n%s",
					tb.cell(t, row, "docs"), ri, r, one, tb.text)
			}
		}
	})

	// sweepMean returns the mean of a column over a table's rows.
	sweepMean := func(t *testing.T, tb parsedTable, col string) float64 {
		var sum float64
		for _, row := range tb.rows {
			sum += tb.num(t, row, col)
		}
		return sum / float64(len(tb.rows))
	}

	t.Run("fig17", func(t *testing.T) {
		tb := tables(t, "fig17", 2)[0] // response time; the second is throughput
		for _, row := range tb.rows {
			lru, cb, cbs := tb.num(t, row, "LRU_ms"), tb.num(t, row, "CBLRU_ms"), tb.num(t, row, "CBSLRU_ms")
			if !(cb < lru && cbs < lru) {
				t.Errorf("%s docs: want CBLRU and CBSLRU under LRU, got %v and %v against %v:\n%s",
					tb.cell(t, row, "docs"), cb, cbs, lru, tb.text)
			}
		}
		if cb, cbs := sweepMean(t, tb, "CBLRU_ms"), sweepMean(t, tb, "CBSLRU_ms"); cbs > cb {
			t.Errorf("CBSLRU averages %v ms over the sweep, above CBLRU's %v:\n%s", cbs, cb, tb.text)
		}
	})

	t.Run("fig19", func(t *testing.T) {
		tb := tables(t, "fig19", 2)[0] // cumulative erases; the second is access time
		for _, row := range tb.rows {
			lru, cb, cbs := tb.num(t, row, "LRU"), tb.num(t, row, "CBLRU"), tb.num(t, row, "CBSLRU")
			if !(cb < lru && cbs < lru) {
				t.Errorf("after %s queries: want CBLRU and CBSLRU erases under LRU's, got %v and %v against %v:\n%s",
					tb.cell(t, row, "queries"), cb, cbs, lru, tb.text)
			}
		}
	})

	t.Run("fig14b", func(t *testing.T) {
		tb := tables(t, "fig14b", 1)[0]
		lru := sweepMean(t, tb, "LRU")
		for _, policy := range []string{"CBLRU", "CBSLRU"} {
			if ric := sweepMean(t, tb, policy); ric <= lru {
				t.Errorf("%s averages RIC %v, not above LRU's %v:\n%s", policy, ric, lru, tb.text)
			}
		}
	})

	t.Run("fig18", func(t *testing.T) {
		tabs := tables(t, "fig18", 2)
		a, b := tabs[0], tabs[1]
		for _, row := range a.rows {
			if two, one := a.num(t, row, "2LC-HDD"), a.num(t, row, "1LC-HDD"); two >= one {
				t.Errorf("%s docs: 2LC-HDD %v is not under 1LC-HDD %v:\n%s", a.cell(t, row, "docs"), two, one, a.text)
			}
		}
		for _, hybrid := range b.rows {
			if !strings.HasPrefix(b.cell(t, hybrid, "config"), "2LC") {
				continue
			}
			for _, memOnly := range b.rows {
				if !strings.HasPrefix(b.cell(t, memOnly, "config"), "1LC") {
					continue
				}
				if h, m := b.num(t, hybrid, "resp_ms"), b.num(t, memOnly, "resp_ms"); h >= m {
					t.Errorf("%s at %v ms is not under %s at %v ms:\n%s",
						b.cell(t, hybrid, "config"), h, b.cell(t, memOnly, "config"), m, b.text)
				}
			}
		}
	})
}
