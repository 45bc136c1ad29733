package obs

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"hybridstore/internal/simclock"
)

// ProfileRow is one situation's cumulative latency attribution.
type ProfileRow struct {
	// Situation is the Table I label ("S1(R:mem)" ...) or "uncached".
	Situation string `json:"situation"`
	// Queries is the number of traces folded into this row.
	Queries int64 `json:"queries"`
	// ElapsedNS is the summed simulated elapsed time of those queries.
	ElapsedNS int64 `json:"elapsed_ns"`
	// Attrib partitions ElapsedNS across the attribution components.
	Attrib Attrib `json:"attrib"`
}

// Profile folds per-query attribution into component/situation-keyed
// cumulative totals: the simulated-time analogue of a CPU profile, where a
// "stack" is root;situation;component and the sample value is simulated
// nanoseconds. All mutation is commutative int64 addition and all renders
// iterate sorted keys, so a profile merged from parallel shards is
// byte-identical to one built serially.
type Profile struct {
	mu    sync.Mutex
	bySit map[string]*ProfileRow
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{bySit: make(map[string]*ProfileRow)}
}

// Add folds one query's attribution into the situation's row.
func (p *Profile) Add(situation string, elapsedNS int64, a Attrib) {
	p.mu.Lock()
	defer p.mu.Unlock()
	row := p.bySit[situation]
	if row == nil {
		row = &ProfileRow{Situation: situation}
		p.bySit[situation] = row
	}
	row.Queries++
	row.ElapsedNS += elapsedNS
	row.Attrib.Merge(a)
}

// Merge adds every row of o into p. Addition is commutative, so merging
// per-worker profiles yields the same totals in any order.
func (p *Profile) Merge(o *Profile) {
	for _, row := range o.Rows() {
		p.mu.Lock()
		dst := p.bySit[row.Situation]
		if dst == nil {
			dst = &ProfileRow{Situation: row.Situation}
			p.bySit[row.Situation] = dst
		}
		dst.Queries += row.Queries
		dst.ElapsedNS += row.ElapsedNS
		dst.Attrib.Merge(row.Attrib)
		p.mu.Unlock()
	}
}

// Reset drops all accumulated rows.
func (p *Profile) Reset() {
	p.mu.Lock()
	p.bySit = make(map[string]*ProfileRow)
	p.mu.Unlock()
}

// Rows returns the accumulated rows sorted by situation label.
func (p *Profile) Rows() []ProfileRow {
	p.mu.Lock()
	defer p.mu.Unlock()
	var keys []string
	for k := range p.bySit {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]ProfileRow, 0, len(keys))
	for _, k := range keys {
		out = append(out, *p.bySit[k])
	}
	return out
}

// Totals returns the number of queries, total elapsed nanoseconds and the
// combined attribution across all rows.
func (p *Profile) Totals() (queries, elapsedNS int64, a Attrib) {
	for _, row := range p.Rows() {
		queries += row.Queries
		elapsedNS += row.ElapsedNS
		a.Merge(row.Attrib)
	}
	return queries, elapsedNS, a
}

// WriteFolded renders the profile as folded stacks (`root;situation;component
// <nanoseconds>` per line), the input format of flamegraph tooling. Zero
// components are skipped; lines are emitted in sorted-situation then
// component-enum order, so output is deterministic.
func (p *Profile) WriteFolded(w io.Writer, root string) error {
	bw := bufio.NewWriter(w)
	for _, row := range p.Rows() {
		for c, v := range row.Attrib {
			if v == 0 {
				continue
			}
			fmt.Fprintf(bw, "%s;%s;%s %d\n", root, row.Situation, simclock.Component(c), v)
		}
	}
	return bw.Flush()
}

// WritePprof renders the profile as gzipped pprof protobuf with one sample
// type ("simtime" in nanoseconds) and root;situation;component stacks. The
// encoding is fully deterministic: no timestamps, stable string-table
// order.
func (p *Profile) WritePprof(w io.Writer, root string) error {
	return writePprof(w, root, p.Rows())
}

// WriteFiles writes the profile as gzipped pprof to pprofPath and as folded
// stacks to foldedPath, both rooted at root, and returns the first error.
func (p *Profile) WriteFiles(pprofPath, foldedPath, root string) error {
	if err := writeFile(pprofPath, func(w io.Writer) error { return p.WritePprof(w, root) }); err != nil {
		return err
	}
	return writeFile(foldedPath, func(w io.Writer) error { return p.WriteFolded(w, root) })
}

// writeFile creates path and fills it with write, reporting a failed write
// or close with the path.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("profile %s: %w", path, err)
	}
	return nil
}
