// Package analysis implements hybridlint, a suite of static analyzers that
// machine-check the repository's load-bearing contracts where no test can:
//
//   - determinism: simulated time and randomness flow exclusively through
//     internal/simclock (analyzer detclock), and neither output paths nor
//     the device simulators iterate maps in Go's randomized order (analyzer
//     mapiter), so every run is byte-identical at any -jobs count and places
//     data the same way;
//   - error accounting: no storage-device or allocator result is silently
//     discarded, so injected faults can never vanish (analyzer ioerr);
//   - zero-copy lifetime: a buffer filled by a device read is on loan for
//     decoding only and may not outlive the read (analyzer bufalias);
//   - shard confinement: concurrently launched closures and event-queue
//     callbacks touch only state bound to them at creation (analyzer
//     confine).
//
// The stats≡trace and Σattrib≡elapsed contracts have no analyzer. Stats is
// the fold of the event stream, and tests check the rest:
// TestOnlyApplyWritesStats in internal/core fails on a counter written
// outside that fold, and TestComponentTable in internal/simclock keeps the
// component table total. tracetool ranges over the Component enum itself,
// and the clock has no advance without a Component.
//
// The bufalias and confine analyzers share a small intra-procedural
// dataflow layer (dataflow.go): def/use value tracking over go/ast+go/types
// that follows local aliases of a value through assignments and reslicings
// inside one function body. Analysis never crosses function boundaries —
// which is a feature, not a shortcut: a callee that wants to keep bytes
// must copy them, and the copy is visible in the caller.
//
// A sixth check, allocbudget (allocbudget.go), is not AST-based at all:
// it replays the compiler's escape analysis (`go build -gcflags=-m`)
// against the committed per-function heap-allocation budget in
// allocbudget.txt, turning the hot path's allocation discipline into a
// regression-gated contract.
//
// The framework is a deliberately small, dependency-free re-implementation
// of the golang.org/x/tools/go/analysis surface this repo needs (the real
// module cannot be vendored here; the build must work from a bare Go
// toolchain with no module downloads). Analyzers receive a type-checked
// package and report position-tagged diagnostics; a finding may be
// suppressed with a justified escape hatch:
//
//	//hybridlint:allow <analyzer> <reason...>
//
// placed on the offending line or alone on the line directly above it. The
// linter itself audits the directives: a missing reason, an unknown
// analyzer name, or a directive that suppresses nothing is a finding in its
// own right (reported under the pseudo-analyzer "allow"), so the escape
// hatch cannot rot into a blanket mute.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow directives.
	Name string
	// Doc is a one-paragraph description of the contract enforced.
	Doc string
	// Run inspects the package and reports findings through the pass.
	Run func(*Pass)
	// Inspects, when non-nil, reports whether the analyzer looks at the
	// package with the given import path at all. The allow-directive audit
	// uses it to flag directives that can never fire: an allow naming an
	// analyzer that does not inspect the surrounding package is dead weight
	// left behind by a refactor, not a suppression. Nil means the analyzer
	// inspects every package.
	Inspects func(path string) bool
}

// A Package is one type-checked unit under analysis.
type Package struct {
	// Path is the package's import path (fixture paths in tests).
	Path string
	// Fset maps AST positions back to file/line/column.
	Fset *token.FileSet
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the use/def/type maps filled by the type checker.
	Info *types.Info
}

// A Pass connects one Analyzer run to its Package and diagnostic sink.
type Pass struct {
	*Package
	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the vet-like file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// AllowPrefix is the comment prefix of the escape-hatch directive.
const AllowPrefix = "hybridlint:allow"

// A directive is one parsed //hybridlint:allow comment. A trailing
// directive guards its own source line; a directive standing alone on its
// line guards the whole statement (or declaration) that starts on the next
// line, including its continuation lines.
type directive struct {
	analyzer string
	reason   string
	pos      token.Position
	// [fromLine, toLine] is the guarded line range within pos.Filename.
	fromLine, toLine int
	used             bool
}

// parseDirectives extracts every allow directive from the package's files.
func parseDirectives(pkg *Package) []*directive {
	var out []*directive
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, AllowPrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(text, AllowPrefix))
				name, reason, _ := strings.Cut(rest, " ")
				d := &directive{
					analyzer: name,
					reason:   strings.TrimSpace(reason),
					pos:      pos,
					fromLine: pos.Line,
					toLine:   pos.Line,
				}
				if onlyCommentOnLine(pkg.Fset, f, c) {
					d.fromLine = pos.Line + 1
					d.toLine = stmtEndLine(pkg.Fset, f, pos.Line+1)
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// stmtEndLine returns the last line of the widest statement, declaration or
// spec starting on the given line of f, or the line itself when nothing
// starts there.
func stmtEndLine(fset *token.FileSet, f *ast.File, line int) int {
	end := line
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case ast.Stmt, ast.Decl, ast.Spec:
			if fset.Position(n.Pos()).Line == line {
				if e := fset.Position(n.End()).Line; e > end {
					end = e
				}
			}
		}
		return true
	})
	return end
}

// onlyCommentOnLine reports whether comment c shares its line with no other
// syntax in f (i.e. the directive stands alone and guards the next line).
// "Shares" means some non-comment node starts or ends on the same line;
// enclosing multi-line nodes (the surrounding function, block, file) do not
// count.
func onlyCommentOnLine(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	line := fset.Position(c.Pos()).Line
	alone := true
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.File, *ast.Comment, *ast.CommentGroup:
			return true
		}
		if fset.Position(n.Pos()).Line == line || fset.Position(n.End()).Line == line {
			alone = false
		}
		return alone
	})
	return alone
}

// guards reports whether d suppresses a diagnostic of the given analyzer
// at pos. Directives without a reason never suppress — an unjustified mute
// must not silence the underlying finding.
func (d *directive) guards(an string, pos token.Position) bool {
	return d.reason != "" && d.analyzer == an && d.pos.Filename == pos.Filename &&
		pos.Line >= d.fromLine && pos.Line <= d.toLine
}

// Run executes the analyzers over one package, applies allow directives,
// audits the directives themselves, and returns the surviving findings
// sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]*Analyzer, len(analyzers))
	for _, a := range All() {
		known[a.Name] = a
	}
	for _, a := range analyzers {
		known[a.Name] = a
	}

	dirs := parseDirectives(pkg)
	var raw []Diagnostic
	for _, a := range analyzers {
		if a.Inspects != nil && !a.Inspects(pkg.Path) {
			continue
		}
		a.Run(&Pass{Package: pkg, analyzer: a, diags: &raw})
	}

	var out []Diagnostic
	for _, d := range raw {
		suppressed := false
		for _, dir := range dirs {
			if dir.guards(d.Analyzer, d.Pos) {
				dir.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}

	for _, dir := range dirs {
		a, isKnown := known[dir.analyzer]
		switch {
		case dir.analyzer == "" || dir.reason == "":
			out = append(out, Diagnostic{Pos: dir.pos, Analyzer: "allow",
				Message: fmt.Sprintf("%s directive needs an analyzer name and a reason: //%s <analyzer> <why this is safe>", AllowPrefix, AllowPrefix)})
		case dir.analyzer == AllocBudgetName:
			out = append(out, Diagnostic{Pos: dir.pos, Analyzer: "allow",
				Message: fmt.Sprintf("%s findings are gated by the committed budget file, not by directives: adjust the function's entry in allocbudget.txt instead", AllocBudgetName)})
		case !isKnown:
			out = append(out, Diagnostic{Pos: dir.pos, Analyzer: "allow",
				Message: fmt.Sprintf("%s names unknown analyzer %q", AllowPrefix, dir.analyzer)})
		case a.Inspects != nil && !a.Inspects(pkg.Path):
			out = append(out, Diagnostic{Pos: dir.pos, Analyzer: "allow",
				Message: fmt.Sprintf("stale %s directive: analyzer %s does not inspect package %s, so this can never suppress anything", AllowPrefix, dir.analyzer, pkg.Path)})
		case !dir.used:
			out = append(out, Diagnostic{Pos: dir.pos, Analyzer: "allow",
				Message: fmt.Sprintf("unused %s directive: no %s finding here to suppress", AllowPrefix, dir.analyzer)})
		}
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// All returns the full AST-based hybridlint suite in reporting order. The
// sixth check, allocbudget, is not package-scoped (it runs the compiler's
// escape analysis over the whole module) and is invoked separately via
// RunAllocBudget; its name is still known to the directive audit through
// AllocBudgetName.
func All() []*Analyzer {
	return []*Analyzer{Detclock, Mapiter, Ioerr, Bufalias, Confine}
}

// pathSegment reports whether the import path contains seg as a whole
// path element ("a/experiments/b" matches "experiments").
func pathSegment(path, seg string) bool {
	for _, p := range strings.Split(path, "/") {
		if p == seg {
			return true
		}
	}
	return false
}
