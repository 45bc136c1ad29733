package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// Mapiter protects the byte-identical-output guarantee: iterating a Go map
// directly leaks the runtime's randomized order into whatever the loop
// produces. In scope are the places where order is observable: the report
// renderers (report.go, reportjson.go in any package), the experiment suite
// (internal/experiments), the telemetry exposition (internal/obs) — order
// reaches the output — and the device simulators (internal/flashsim,
// internal/disksim), where order decides physical placement and with it
// per-block wear and seek distances. The bug it names: the hybrid-log FTL
// chose its merge order with `for lb := range needMerge`, so two identical
// runs ended with different block maps and per-block erase counters.
//
// The one permitted shape is the collect-then-sort idiom: a range whose
// body only appends the key to a slice (`keys = append(keys, k)`), which
// by construction feeds a sort before anything is rendered. Everything
// else must iterate sorted keys (see experiments.sortedKeys) or justify
// itself with //hybridlint:allow mapiter <reason>.
var Mapiter = &Analyzer{
	Name: "mapiter",
	Doc:  "output paths and device simulators must not range over maps in randomized order",
	Run:  runMapiter,
}

// mapiterFiles are the file basenames that are in scope in any package.
var mapiterFiles = map[string]bool{
	"report.go":     true,
	"reportjson.go": true,
}

// What a map's iteration order reaches in the two kinds of scope, as the
// diagnostic words it.
const (
	inOutputPath = "an output path"
	inSimulator  = "a device simulator, where order decides physical placement"
)

// mapiterPackages are the import-path elements that put a whole package in
// scope.
var mapiterPackages = []struct{ segment, where string }{
	{"experiments", inOutputPath},
	{"obs", inOutputPath},
	{"flashsim", inSimulator},
	{"disksim", inSimulator},
}

func runMapiter(pass *Pass) {
	pkgWhere := ""
	for _, p := range mapiterPackages {
		if pathSegment(pass.Path, p.segment) {
			pkgWhere = p.where
			break
		}
	}
	for _, f := range pass.Files {
		where := pkgWhere
		if where == "" && mapiterFiles[filepath.Base(pass.Fset.Position(f.Pos()).Filename)] {
			where = inOutputPath
		}
		if where == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv := pass.Info.TypeOf(rs.X)
			if tv == nil {
				return true
			}
			if _, isMap := tv.Underlying().(*types.Map); !isMap {
				return true
			}
			if isKeyCollector(rs) {
				return true
			}
			pass.Reportf(rs.For, "ranges over a map in %s (iteration order is randomized); iterate sorted keys or collect-and-sort", where)
			return true
		})
	}
}

// isKeyCollector reports whether the range body is exactly the sorted-keys
// collector idiom: one statement of the form `keys = append(keys, k)`
// where k is the range key.
func isKeyCollector(rs *ast.RangeStmt) bool {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || rs.Body == nil || len(rs.Body.List) != 1 {
		return false
	}
	if rs.Value != nil {
		if v, ok := rs.Value.(*ast.Ident); !ok || v.Name != "_" {
			return false
		}
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	dst, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	src, ok := call.Args[0].(*ast.Ident)
	arg, ok2 := call.Args[1].(*ast.Ident)
	return ok && ok2 && src.Name == dst.Name && arg.Name == key.Name
}
