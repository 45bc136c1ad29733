package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hybridstore/internal/storage"
)

// TestOnlyApplyWritesStats parses the package's non-test files and fails on
// any assignment or increment to a Stats field outside (*Stats).apply and
// ResetStats: every counter moves through an event, so Stats is the fold of
// the event stream by construction.
func TestOnlyApplyWritesStats(t *testing.T) {
	fields := map[string]bool{"stats": true} // the Manager's Stats
	for _, typ := range []reflect.Type{reflect.TypeOf(Stats{}), reflect.TypeOf(SituationTally{})} {
		for i := 0; i < typ.NumField(); i++ {
			fields[typ.Field(i).Name] = true
		}
	}
	// namesField reports whether a selector anywhere along the written
	// expression (m.stats.X, s.Situations.Counts[i], …) is such a field.
	var namesField func(x ast.Expr) bool
	namesField = func(x ast.Expr) bool {
		switch x := x.(type) {
		case *ast.SelectorExpr:
			return fields[x.Sel.Name] || namesField(x.X)
		case *ast.IndexExpr:
			return namesField(x.X)
		case *ast.StarExpr:
			return namesField(x.X)
		case *ast.ParenExpr:
			return namesField(x.X)
		}
		return false
	}

	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	scanned := 0
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		scanned++
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil &&
				(fn.Name.Name == "apply" || fn.Name.Name == "ResetStats") {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				var written []ast.Expr
				switch s := n.(type) {
				case *ast.AssignStmt:
					if s.Tok != token.DEFINE {
						written = s.Lhs
					}
				case *ast.IncDecStmt:
					written = []ast.Expr{s.X}
				}
				for _, x := range written {
					if namesField(x) {
						t.Errorf("%s: writes a Stats field outside (*Stats).apply; emit an event instead", fset.Position(x.Pos()))
					}
				}
				return true
			})
		}
	}
	if scanned == 0 {
		t.Fatal("no source files scanned")
	}
}

// TestResultFlushesMatchDeviceWrites cross-checks the result flush events
// against the device: one EvResultFlush or EvRBFlush fires per result write
// — an assembled RB, a CBSLRU pin or an LRU entry — so their count is every
// cache-SSD write that is not a list write, while RBFlushes counts only the
// RBs among them.
func TestResultFlushesMatchDeviceWrites(t *testing.T) {
	for _, policy := range []Policy{PolicyCBSLRU, PolicyLRU} {
		f := newFixture(t, testConfig(policy))
		var flushes int64
		f.m.SetEventSink(func(e Event) {
			if e.Kind == EvResultFlush || e.Kind == EvRBFlush {
				flushes++
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
		writes := f.ssd.(*storage.MemDevice).Stats().Writes
		if want := writes - st.ListWritesToSSD; flushes != want {
			t.Errorf("%s: %d result flush events, %d cache-SSD writes − %d list writes = %d",
				policy, flushes, writes, st.ListWritesToSSD, want)
		}
		if flushes <= st.RBFlushes {
			t.Errorf("%s: %d result flush events, %d RBFlushes: the pin or entry writes are missing",
				policy, flushes, st.RBFlushes)
		}
	}
}
