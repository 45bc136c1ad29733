package experiments

import (
	"flag"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"hybridstore/internal/core"
	"hybridstore/internal/flashsim"
)

// shapesFull runs TestPaperShapes at FullScale (under 30 s) instead of
// SmallScale: go test ./internal/experiments -run TestPaperShapes -shapes.full
var shapesFull = flag.Bool("shapes.full", false, "assert the paper shapes at FullScale instead of SmallScale")

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

// TestPaperShapes runs table1, fig16 and fig18 once and asserts, from the
// printed tables, the orderings the paper's argument rests on: a query
// served from the SSD cache costs what flash costs and far less than one
// served from the HDD, and the two-level cache beats the one-level cache it
// extends. Fig 17's sign (CBLRU vs LRU) is not asserted: it is inverted at
// these scales until the geometry is the paper's (ROADMAP item 1).
func TestPaperShapes(t *testing.T) {
	sc := SmallScale()
	if *shapesFull {
		sc = FullScale()
	}
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
		for _, s := range []string{"S1", "S2", "S5", "S9"} {
			if cost[s] == 0 {
				t.Fatalf("situation %s did not occur:\n%s", s, tb.text)
			}
		}
		flash := flashsim.DefaultParams(1 << 20)
		entryRead := time.Duration(sc.cacheConfig(core.PolicyCBSLRU).ResultEntryBytes/int64(flash.PageSize)) * flash.PageReadLatency
		if cost["S2"] > 2*entryRead {
			t.Errorf("S2 = %v, over twice the %v of flash page reads a result entry takes:\n%s", cost["S2"], entryRead, tb.text)
		}
		if cost["S5"] >= cost["S9"]/4 {
			t.Errorf("S5 = %v is not under a quarter of S9 = %v:\n%s", cost["S5"], cost["S9"], tb.text)
		}
		if !(cost["S1"] < cost["S2"] && cost["S2"] < cost["S5"] && cost["S5"] < cost["S9"]) {
			t.Errorf("want T(S1) < T(S2) < T(S5) < T(S9), got %v, %v, %v, %v:\n%s",
				cost["S1"], cost["S2"], cost["S5"], cost["S9"], tb.text)
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
