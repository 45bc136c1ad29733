package analysis

// dataflow.go is the small intra-procedural def/use layer shared by the
// bufalias and confine analyzers: value tracking over go/ast +
// go/types that follows local aliases of a value through assignments and
// reslicings inside one function body. It is deliberately flow-insensitive
// (a variable that ever aliases a tracked value stays tracked for the whole
// body) and never crosses function boundaries — a callee that wants to keep
// a tracked value must copy it, and the copy is visible in the caller.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// stripDerive unwraps the expression forms through which a slice value
// still aliases its source: parentheses and slicing (v[a:b], v[a:b:c]
// share v's backing array).
func stripDerive(e ast.Expr) ast.Expr {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		default:
			return e
		}
	}
}

// deriveRoot returns the identifier a derived expression aliases, or nil
// when the expression does not bottom out in a plain identifier.
func deriveRoot(e ast.Expr) *ast.Ident {
	id, _ := stripDerive(e).(*ast.Ident)
	return id
}

// varOf resolves an expression's root identifier to the variable it names
// (use or definition), or nil.
func varOf(pass *Pass, e ast.Expr) *types.Var {
	id := deriveRoot(e)
	if id == nil {
		return nil
	}
	if v, ok := pass.Info.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := pass.Info.Defs[id].(*types.Var); ok {
		return v
	}
	return nil
}

// taint is a flow-insensitive set of variables known to alias a tracked
// value inside one function body.
type taint struct {
	pass *Pass
	vars map[*types.Var]bool
}

func newTaint(pass *Pass) *taint {
	return &taint{pass: pass, vars: map[*types.Var]bool{}}
}

// add marks the root variable of e as tracked, reporting whether the set
// grew. Expressions that do not root in a variable are ignored.
func (t *taint) add(e ast.Expr) bool {
	v := varOf(t.pass, e)
	if v == nil || t.vars[v] {
		return false
	}
	t.vars[v] = true
	return true
}

// tainted reports whether e (possibly a reslicing of a variable) aliases a
// tracked value. An append with spread (`append(dst, v...)`) copies the
// bytes and therefore does not alias; an append whose base is tracked
// returns a value that may still share the base's backing array.
func (t *taint) tainted(e ast.Expr) bool {
	e = stripDerive(e)
	if call, ok := e.(*ast.CallExpr); ok {
		if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "append" && len(call.Args) > 0 {
			return t.tainted(call.Args[0])
		}
		return false
	}
	v := varOf(t.pass, e)
	return v != nil && t.vars[v]
}

// propagate runs the alias fixpoint over body: every assignment whose
// right-hand side aliases a tracked value marks its left-hand variable
// tracked, until the set stops growing.
func (t *taint) propagate(body ast.Node) {
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
				return true
			}
			for i, rhs := range as.Rhs {
				if t.tainted(rhs) && t.add(as.Lhs[i]) {
					changed = true
				}
			}
			return true
		})
	}
}

// capturedVars returns the variables referenced inside lit but declared
// outside it — the closure's free variables. Struct fields are excluded
// (capturing `p` and writing `p.f` is a capture of p, not of f).
func capturedVars(pass *Pass, lit *ast.FuncLit) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			out[v] = true
		}
		return true
	})
	return out
}

// namedType returns the named type of t after stripping one level of
// pointer, or nil.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// typeIs reports whether t (or its pointee) is a named type with the given
// name whose declaring package's name matches pkgName. Matching by package
// name rather than full import path keeps the check meaningful for the
// golden fixtures, which re-declare the shapes under testdata paths.
func typeIs(t types.Type, pkgName, name string) bool {
	named := namedType(t)
	if named == nil || named.Obj() == nil {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Name() == pkgName
}

// methodNamed resolves call's callee to a method (a *types.Func with a
// receiver) with the given name, or nil.
func methodNamed(pass *Pass, call *ast.CallExpr, name string) *types.Func {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return nil
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return fn
}
