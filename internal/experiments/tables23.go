package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"hybridstore/internal/flashsim"
	"hybridstore/internal/metrics"
)

// Tables23Environment prints the reproduction's counterpart of the paper's
// Tables II (environment) and III (simulated SSD parameters), documenting
// each substitution.
func Tables23Environment(w io.Writer, sc Scale) error {
	fmt.Fprintln(w, "# Table II — environment (paper → reproduction)")
	env := metrics.NewTable("item", "paper", "reproduction")
	env.AddRow("IR tool", "Lucene 3.0.0", "internal/index + internal/engine (impact-ordered lists, top-K, early termination)")
	env.AddRow("data set", "enwiki-20090805 (5M docs)", fmt.Sprintf("synthetic Zipf collection (%d docs, %d terms)", sc.BaseDocs, sc.Vocab))
	env.AddRow("query log", "AOL collection", fmt.Sprintf("synthetic Zipf log (%d distinct queries)", sc.DistinctQueries))
	env.AddRow("I/O trace analyzer", "DiskMon 2.0.1", "internal/trace (device op hooks)")
	env.AddRow("SSD simulator", "FlashSim/DiskSim 3.0 (PSU)", "internal/flashsim (page-mapping FTL, greedy GC)")
	env.AddRow("SSD", "Intel SSD 320 40GB", "flashsim with Table III timings")
	env.AddRow("HDD", "WDC WD3200AAJS", "internal/disksim (7200 RPM seek/rotation/transfer model)")
	env.AddRow("OS / timing", "Windows Server 2003 / Ubuntu", "deterministic virtual clock (internal/simclock)")
	if _, err := io.WriteString(w, env.String()); err != nil {
		return err
	}

	fmt.Fprintln(w, "\n# Table III — simulated SSD parameters (identical to the paper)")
	ssd := metrics.NewTable("parameter", "value")
	ssd.AddRow("FTL", "page-mapping")
	p := flashsim.DefaultParams(0) // geometry and timings do not depend on capacity
	ssd.AddRow("page size", fmt.Sprintf("%d KB", p.PageSize>>10))
	ssd.AddRow("block size", fmt.Sprintf("%d KB (%d pages)", p.PageSize*p.PagesPerBlock>>10, p.PagesPerBlock))
	ssd.AddRow("page read", spacedUnit(p.PageReadLatency))
	ssd.AddRow("page write", spacedUnit(p.PageWriteLatency))
	ssd.AddRow("block erase", spacedUnit(p.BlockEraseLatency))
	_, err := io.WriteString(w, ssd.String())
	return err
}

// spacedUnit renders d as the paper's tables do: Duration's shortest form
// with a space between number and unit ("32.725 µs", "1.5 ms").
func spacedUnit(d time.Duration) string {
	s := d.String()
	unit := strings.IndexFunc(s, func(r rune) bool { return r != '.' && (r < '0' || r > '9') })
	return s[:unit] + " " + s[unit:]
}
