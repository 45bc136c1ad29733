package analysis

import (
	"go/ast"
	"go/types"
)

// Ioerr enforces the fault-accounting contract hardened in the fault
// injection work: no error result from the storage layer (storage.Device
// implementations, the simulated HDD/SSD backends, Allocator) may be
// silently discarded — an injected device fault that is dropped on the
// floor would vanish from Stats/FaultReport and the run would lie about
// its own data loss. The allocator's boolean success results (Alloc,
// AllocAligned) are covered for the same reason: ignoring a failed
// allocation silently corrupts space accounting.
//
// Flagged shapes: a bare call statement, `_ =` / `_, _ =` assignments of
// the error (or allocator bool) position, and go/defer statements that
// drop the results.
var Ioerr = &Analyzer{
	Name: "ioerr",
	Doc:  "storage-layer errors and allocator success results must be handled",
	Run:  runIoerr,
}

// ioerrPackages are the package names whose API results are protected.
var ioerrPackages = map[string]bool{
	"storage":  true,
	"disksim":  true,
	"flashsim": true,
}

// allocBoolFuncs are the storage functions whose boolean result reports
// allocation success and therefore must be consumed.
var allocBoolFuncs = map[string]bool{
	"Alloc": true, "AllocAligned": true,
}

func runIoerr(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					if fn, idx := guardedResults(pass, call); len(idx) > 0 {
						pass.Reportf(call.Pos(), "result of %s.%s discarded: handle the %s so faults stay accounted", fn.Pkg().Name(), fn.Name(), resultNoun(fn))
					}
				}
				return true
			case *ast.GoStmt:
				if fn, idx := guardedResults(pass, st.Call); len(idx) > 0 {
					pass.Reportf(st.Call.Pos(), "go statement discards the %s of %s.%s", resultNoun(fn), fn.Pkg().Name(), fn.Name())
				}
				return true
			case *ast.DeferStmt:
				if fn, idx := guardedResults(pass, st.Call); len(idx) > 0 {
					pass.Reportf(st.Call.Pos(), "defer discards the %s of %s.%s", resultNoun(fn), fn.Pkg().Name(), fn.Name())
				}
				return true
			case *ast.AssignStmt:
				checkAssign(pass, st)
				return true
			}
			return true
		})
	}
}

// checkAssign flags blank-identifier assignments of guarded results.
func checkAssign(pass *Pass, st *ast.AssignStmt) {
	// Multi-value form: lat, err := d.ReadAt(...) — one call, n results.
	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		call, ok := st.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		fn, idx := guardedResults(pass, call)
		for _, i := range idx {
			if i < len(st.Lhs) && isBlank(st.Lhs[i]) {
				pass.Reportf(st.Lhs[i].Pos(), "%s result of %s.%s assigned to _: handle it so faults stay accounted", resultNoun(fn), fn.Pkg().Name(), fn.Name())
			}
		}
		return
	}
	// One-to-one form: _ = dev.Flush() style single-result calls.
	for i, rhs := range st.Rhs {
		if i >= len(st.Lhs) || !isBlank(st.Lhs[i]) {
			continue
		}
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			continue
		}
		if fn, idx := guardedResults(pass, call); len(idx) > 0 {
			pass.Reportf(st.Lhs[i].Pos(), "%s result of %s.%s assigned to _: handle it so faults stay accounted", resultNoun(fn), fn.Pkg().Name(), fn.Name())
		}
	}
}

// guardedResults resolves call's callee; when it is a function or method of
// a protected storage package, it returns the callee and the indices of the
// result values that must not be discarded (error results always; boolean
// results for the allocator success functions).
func guardedResults(pass *Pass, call *ast.CallExpr) (*types.Func, []int) {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj = pass.Info.Uses[fun.Sel]
	case *ast.Ident:
		obj = pass.Info.Uses[fun]
	default:
		return nil, nil
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || !ioerrPackages[fn.Pkg().Name()] {
		return nil, nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil, nil
	}
	var idx []int
	for i := 0; i < sig.Results().Len(); i++ {
		t := sig.Results().At(i).Type()
		if isErrorType(t) || (allocBoolFuncs[fn.Name()] && isBoolType(t)) {
			idx = append(idx, i)
		}
	}
	return fn, idx
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

func isBoolType(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Bool
}

// resultNoun names what the callee's guarded result is, for messages.
func resultNoun(fn *types.Func) string {
	if allocBoolFuncs[fn.Name()] {
		return "success"
	}
	return "error"
}
