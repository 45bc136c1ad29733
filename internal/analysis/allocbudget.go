package analysis

// allocbudget is the one hybridlint check that is not AST-based: it replays
// the compiler's escape analysis (`go build -gcflags=<pkg>=-m`) and holds
// the hot path to the per-function heap-allocation budget committed in
// allocbudget.txt at the module root. The 8 allocs/op query path is a
// measured property the benchmarks enforce end to end; this gate catches
// the regression at the function that introduced it, at lint time, with the
// compiler's own escape diagnostics as evidence.
//
// Budget file format, one entry per line:
//
//	<import path> <function> <max escapes>   # rationale
//
// where <function> is the declaration name as the compiler prints it:
// Execute for a plain function, (*Engine).Execute for a pointer-receiver
// method. The count is the number of escape-analysis diagnostics ("escapes
// to heap" / "moved to heap") attributed to source lines inside the
// function, nested closures included. A budgeted function that no longer
// exists is itself a finding, so the file cannot go stale silently.
//
// There is deliberately no //hybridlint:allow escape hatch for this check
// (the directive audit rejects one): the budget file is the escape hatch,
// and raising a budget is a diffable, reviewable act in the same commit as
// the regression that needs it.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// AllocBudgetName names the escape-analysis budget check in diagnostics.
// It is not part of All(): it runs over whole packages via the go tool, not
// over a parsed AST, and is invoked separately through RunAllocBudget.
const AllocBudgetName = "allocbudget"

// BudgetFileName is the committed budget file at the module root.
const BudgetFileName = "allocbudget.txt"

// A BudgetEntry is one parsed budget line.
type BudgetEntry struct {
	Pkg  string // import path, e.g. hybridstore/internal/engine
	Func string // declaration name, e.g. (*Engine).Execute
	Max  int    // maximum escape-analysis diagnostics allowed
	Line int    // line number in the budget file, for stale-entry reports
}

// ParseBudgetFile reads the committed budget file. Blank lines and lines
// starting with # are ignored; everything after a # on an entry line is a
// rationale comment.
func ParseBudgetFile(path string) ([]BudgetEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []BudgetEntry
	for i, line := range strings.Split(string(data), "\n") {
		if idx := strings.Index(line, "#"); idx >= 0 {
			line = line[:idx]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("%s:%d: want `<import path> <function> <budget>`, got %d fields", path, i+1, len(fields))
		}
		max, err := strconv.Atoi(fields[2])
		if err != nil || max < 0 {
			return nil, fmt.Errorf("%s:%d: budget %q is not a non-negative integer", path, i+1, fields[2])
		}
		out = append(out, BudgetEntry{Pkg: fields[0], Func: fields[1], Max: max, Line: i + 1})
	}
	return out, nil
}

// An escapeSite is one escape-analysis diagnostic position.
type escapeSite struct {
	// file is the path as the compiler printed it — under -trimpath,
	// <import path>/<base name> — until RunAllocBudget replaces it with the
	// absolute path of the source file.
	file string
	line int
}

// ForeignSites are the escape sites the compiler reported, while building
// Pkg, in one file of another package: the bodies of generic functions
// instantiated in Pkg (slices.Grow, say). They belong to no declaration of
// Pkg, so no budget counts them; where such a body was inlined, the compiler
// reports its escapes a second time at the call, and those are counted.
type ForeignSites struct {
	Pkg   string // budgeted package being built
	File  string // <import path>/<base name> of the file the sites are in
	Lines []int  // ascending, each once
}

// parseEscapeOutput extracts the escape sites from `go build -gcflags=-m`
// stderr: lines whose message ends in "escapes to heap" or begins with
// "moved to heap". Inlining and other -m chatter is ignored.
func parseEscapeOutput(out string) []escapeSite {
	var sites []escapeSite
	for _, line := range strings.Split(out, "\n") {
		parts := strings.SplitN(line, ":", 4)
		if len(parts) != 4 {
			continue
		}
		msg := strings.TrimSpace(parts[3])
		if !strings.HasSuffix(msg, "escapes to heap") && !strings.HasPrefix(msg, "moved to heap") {
			continue
		}
		n, err := strconv.Atoi(parts[1])
		if err != nil {
			continue
		}
		sites = append(sites, escapeSite{file: parts[0], line: n})
	}
	return sites
}

// A funcRange is one top-level function declaration's line extent.
type funcRange struct {
	name     string // as the compiler prints it: Name, T.Name, (*T).Name
	from, to int
	start    token.Position // declaration position, for diagnostics
	escapes  int
}

// parseFuncRanges parses one source file and returns its top-level function
// declarations with compiler-style names. Escape sites inside a nested
// closure land in the enclosing declaration's range, matching how the
// budget is meant to read: the whole body, closures included.
func parseFuncRanges(path string) ([]*funcRange, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var out []*funcRange
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		name := fn.Name.Name
		if fn.Recv != nil && len(fn.Recv.List) == 1 {
			switch rt := fn.Recv.List[0].Type.(type) {
			case *ast.StarExpr:
				if id, ok := baseTypeIdent(rt.X); ok {
					name = "(*" + id + ")." + name
				}
			default:
				if id, ok := baseTypeIdent(rt); ok {
					name = id + "." + name
				}
			}
		}
		out = append(out, &funcRange{
			name:  name,
			from:  fset.Position(fn.Pos()).Line,
			to:    fset.Position(fn.End()).Line,
			start: fset.Position(fn.Pos()),
		})
	}
	return out, nil
}

// baseTypeIdent extracts the receiver base type name (generic receivers
// like T[P] reduce to T, matching the compiler's printing).
func baseTypeIdent(e ast.Expr) (string, bool) {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name, true
	case *ast.IndexExpr:
		return baseTypeIdent(v.X)
	case *ast.IndexListExpr:
		return baseTypeIdent(v.X)
	}
	return "", false
}

// RunAllocBudget replays escape analysis for every package named in the
// budget file (found at budgetPath; the go commands run in its directory,
// which must be inside the module) and returns one diagnostic per
// over-budget function plus one per stale budget entry, and separately the
// escape sites it could not attribute because they lie in other packages'
// files. Those are information, not findings.
func RunAllocBudget(budgetPath string) ([]Diagnostic, []ForeignSites, error) {
	entries, err := ParseBudgetFile(budgetPath)
	if err != nil {
		return nil, nil, err
	}
	if len(entries) == 0 {
		return nil, nil, nil
	}
	dir := filepath.Dir(budgetPath)

	pkgSet := map[string]bool{}
	for _, e := range entries {
		pkgSet[e.Pkg] = true
	}
	pkgs := make([]string, 0, len(pkgSet))
	for p := range pkgSet {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)

	// Resolve each budgeted package to its source directory.
	pkgDir := map[string]string{}
	listOut, err := goCommand(dir, append([]string{"list", "-f", "{{.ImportPath}} {{.Dir}}"}, pkgs...)...)
	if err != nil {
		return nil, nil, fmt.Errorf("resolving budgeted packages: %w", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(listOut), "\n") {
		if path, d, ok := strings.Cut(line, " "); ok {
			pkgDir[path] = d
		}
	}

	// One build per package: the compiler replays its diagnostics from the
	// build cache, so repeated runs stay cheap. Without -trimpath the paths it
	// prints are relative to whichever directory first populated the cache;
	// with it they are <import path>/<base name> from any directory, which
	// also tells the package's own files from those of a generic function's
	// home package.
	var sites []escapeSite
	var foreign []ForeignSites
	for _, p := range pkgs {
		flags := fmt.Sprintf("-gcflags=%s=-m", p)
		out, err := goCommand(dir, "build", "-trimpath", flags, p)
		if err != nil {
			return nil, nil, fmt.Errorf("escape analysis of %s: %w", p, err)
		}
		foreignLines := map[string][]int{} // printed file -> lines
		for _, s := range parseEscapeOutput(out) {
			if path.Dir(s.file) != p {
				foreignLines[s.file] = append(foreignLines[s.file], s.line)
				continue
			}
			s.file = filepath.Join(pkgDir[p], path.Base(s.file))
			sites = append(sites, s)
		}
		files := make([]string, 0, len(foreignLines))
		for f := range foreignLines {
			files = append(files, f)
		}
		sort.Strings(files)
		for _, f := range files {
			lines := foreignLines[f]
			sort.Ints(lines)
			foreign = append(foreign, ForeignSites{Pkg: p, File: f, Lines: slices.Compact(lines)})
		}
	}

	// Attribute sites to top-level declarations.
	ranges := map[string][]*funcRange{} // abs file path -> ranges
	for _, s := range sites {
		if _, ok := ranges[s.file]; ok {
			continue
		}
		r, err := parseFuncRanges(s.file)
		if err != nil {
			return nil, nil, fmt.Errorf("mapping escape sites: %w", err)
		}
		ranges[s.file] = r
	}
	for _, s := range sites {
		for _, r := range ranges[s.file] {
			if s.line >= r.from && s.line <= r.to {
				r.escapes++
			}
		}
	}

	var diags []Diagnostic
	for _, e := range entries {
		d, ok := pkgDir[e.Pkg]
		if !ok {
			diags = append(diags, Diagnostic{
				Pos:      token.Position{Filename: budgetPath, Line: e.Line},
				Analyzer: AllocBudgetName,
				Message:  fmt.Sprintf("%s names package %s, which go list cannot resolve: remove or fix the stale entry", BudgetFileName, e.Pkg),
			})
			continue
		}
		fr := findFunc(ranges, d, e.Func)
		if fr == nil {
			// The function may simply have had no escapes (so its file was
			// never parsed); look it up across the package's sources.
			var err error
			fr, err = findFuncInDir(ranges, d, e.Func)
			if err != nil {
				return nil, nil, err
			}
		}
		if fr == nil {
			diags = append(diags, Diagnostic{
				Pos:      token.Position{Filename: budgetPath, Line: e.Line},
				Analyzer: AllocBudgetName,
				Message:  fmt.Sprintf("%s names %s in %s, but no such function exists: remove or fix the stale entry", BudgetFileName, e.Func, e.Pkg),
			})
			continue
		}
		if fr.escapes > e.Max {
			diags = append(diags, Diagnostic{
				Pos:      fr.start,
				Analyzer: AllocBudgetName,
				Message:  fmt.Sprintf("hot-path function %s has %d heap escapes, over its committed budget of %d (%s): eliminate the new allocations, or raise the budget in the same commit with justification", e.Func, fr.escapes, e.Max, BudgetFileName),
			})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return diags, foreign, nil
}

// findFunc looks for a named function among the already-parsed files of
// package directory d.
func findFunc(ranges map[string][]*funcRange, d, name string) *funcRange {
	for f, rs := range ranges {
		if filepath.Dir(f) != d {
			continue
		}
		for _, r := range rs {
			if r.name == name {
				return r
			}
		}
	}
	return nil
}

// findFuncInDir parses any not-yet-parsed .go sources in d looking for the
// named function, adding their ranges to the map.
func findFuncInDir(ranges map[string][]*funcRange, d, name string) (*funcRange, error) {
	files, err := filepath.Glob(filepath.Join(d, "*.go"))
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		if _, ok := ranges[f]; ok {
			continue
		}
		rs, err := parseFuncRanges(f)
		if err != nil {
			return nil, err
		}
		ranges[f] = rs
	}
	return findFunc(ranges, d, name), nil
}

// goCommand runs the go tool in dir and returns combined output; a non-zero
// exit is an error carrying that output.
func goCommand(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out), nil
}
