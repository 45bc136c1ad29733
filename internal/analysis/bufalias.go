package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Bufalias enforces the zero-copy lifetime rule from the block-compressed
// read path: a []byte filled by a storage/flashsim/disksim ReadAt (or a
// ReadListRange that forwards to one), and every value deriving from it by
// assignment or reslicing, is on loan for the duration of the enclosing
// call. It may be decoded in place, but it may not outlive the call: storing
// it into a struct field, package-level variable, map or slice element,
// returning it, appending it as an element (spread copies are fine),
// sending it on a channel, or capturing it in a closure or go statement all
// let the alias survive past the next read that recycles the buffer.
//
// The one sanctioned holder of loaned bytes is an owner type listed in
// bufOwnerTypes (index.BlockCursor): its methods manage the loan as a unit,
// so field stores and returns inside them are exempt. Passing a loaned
// buffer to an ordinary call is deliberately not flagged — analysis is
// intra-procedural, and a callee that wants to keep the bytes must copy
// them, which is visible in the callee's own package.
//
// The device packages themselves (path segments storage, flashsim, disksim)
// are not inspected: they implement the loan, they don't take one out.
var Bufalias = &Analyzer{
	Name:     "bufalias",
	Doc:      "device-loaned buffers may not outlive the read call",
	Run:      runBufalias,
	Inspects: bufaliasInspects,
}

func bufaliasInspects(path string) bool {
	return !pathSegment(path, "storage") && !pathSegment(path, "flashsim") && !pathSegment(path, "disksim")
}

// bufOwnerTypes are the named types annotated as legitimate owners of
// loaned bytes, keyed by {package name, type name}, with the rationale.
var bufOwnerTypes = map[[2]string]string{
	{"index", "BlockCursor"}: "owns decode state over the loaned block by design: Reset takes the loan, and Decode (which returns a raw block as a view of it) and Next consume it before the next read",
}

func runBufalias(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			bufaliasFunc(pass, fn)
		}
	}
}

// deviceReadBuffer returns the buffer argument loaned out by call, or nil
// when call is not a device read. ReadAt methods qualify when declared in a
// package whose path has a device segment; ReadListRange is the hybrid
// store's read-through entry point and loans its destination everywhere.
func deviceReadBuffer(pass *Pass, call *ast.CallExpr) ast.Expr {
	if fn := methodNamed(pass, call, "ReadAt"); fn != nil && fn.Pkg() != nil && len(call.Args) >= 1 {
		if p := fn.Pkg().Path(); pathSegment(p, "storage") || pathSegment(p, "flashsim") || pathSegment(p, "disksim") {
			return call.Args[0]
		}
	}
	if fn := methodNamed(pass, call, "ReadListRange"); fn != nil && len(call.Args) >= 3 {
		return call.Args[2]
	}
	return nil
}

// isOwnerMethod reports whether fn is a method of an annotated owner type.
func isOwnerMethod(pass *Pass, fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) != 1 {
		return false
	}
	named := namedType(pass.Info.TypeOf(fn.Recv.List[0].Type))
	if named == nil || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	_, ok := bufOwnerTypes[[2]string{named.Obj().Pkg().Name(), named.Obj().Name()}]
	return ok
}

func bufaliasFunc(pass *Pass, fn *ast.FuncDecl) {
	// Seed: every variable a device read fills inside this body.
	t := newTaint(pass)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if buf := deviceReadBuffer(pass, call); buf != nil {
				t.add(buf)
			}
		}
		return true
	})
	if len(t.vars) == 0 {
		return
	}
	t.propagate(fn.Body)
	owner := isOwnerMethod(pass, fn)

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for i, rhs := range st.Rhs {
				if t.tainted(rhs) {
					bufaliasStore(pass, st.Lhs[i], owner)
				}
			}
		case *ast.ReturnStmt:
			if owner {
				return true
			}
			for _, r := range st.Results {
				if t.tainted(r) {
					pass.Reportf(r.Pos(), "returning a device-loaned buffer lets it outlive the read: copy the bytes, or make the holder an annotated owner type (zero-copy lifetime rule)")
				}
			}
		case *ast.CallExpr:
			if id, ok := st.Fun.(*ast.Ident); ok && id.Name == "append" {
				for i := 1; i < len(st.Args); i++ {
					if st.Ellipsis != token.NoPos && i == len(st.Args)-1 {
						continue // append(dst, loaned...) copies the bytes
					}
					if t.tainted(st.Args[i]) {
						pass.Reportf(st.Args[i].Pos(), "appending a device-loaned buffer as an element stores an alias that outlives the read: append its bytes with ... (which copies) or copy explicitly")
					}
				}
			}
		case *ast.GoStmt:
			for _, a := range st.Call.Args {
				if t.tainted(a) {
					pass.Reportf(a.Pos(), "passing a device-loaned buffer to a goroutine lets it outlive the read: copy the bytes first")
				}
			}
		case *ast.SendStmt:
			if t.tainted(st.Value) {
				pass.Reportf(st.Value.Pos(), "sending a device-loaned buffer on a channel lets it outlive the read: copy the bytes first")
			}
		case *ast.CompositeLit:
			for _, elt := range st.Elts {
				v := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if t.tainted(v) {
					pass.Reportf(v.Pos(), "storing a device-loaned buffer in a composite literal lets it outlive the read: copy the bytes first")
				}
			}
		case *ast.FuncLit:
			for v := range capturedVars(pass, st) {
				if t.vars[v] {
					pass.Reportf(st.Pos(), "closure captures device-loaned buffer %s, which may outlive the read: copy the bytes or pass them as a call argument", v.Name())
				}
			}
		}
		return true
	})
}

// bufaliasStore reports a tainted right-hand side flowing into an
// lvalue that outlives the call. Plain writes to local variables are the
// propagation step, not a sink.
func bufaliasStore(pass *Pass, lhs ast.Expr, owner bool) {
	for {
		p, ok := lhs.(*ast.ParenExpr)
		if !ok {
			break
		}
		lhs = p.X
	}
	switch l := lhs.(type) {
	case *ast.Ident:
		v, ok := pass.Info.Uses[l].(*types.Var)
		if ok && v.Parent() == pass.Types.Scope() {
			pass.Reportf(l.Pos(), "storing a device-loaned buffer in package-level var %s lets it outlive the read: copy the bytes (zero-copy lifetime rule)", l.Name)
		}
	case *ast.SelectorExpr:
		v, ok := pass.Info.Uses[l.Sel].(*types.Var)
		if !ok {
			return
		}
		switch {
		case v.IsField() && !owner:
			pass.Reportf(l.Pos(), "storing a device-loaned buffer in struct field %s lets it outlive the read: copy the bytes, or annotate the holder in bufOwnerTypes with a rationale", l.Sel.Name)
		case !v.IsField() && v.Parent() != nil && v.Parent().Parent() == types.Universe:
			// pkg.Var selector: a package-level variable of another package.
			pass.Reportf(l.Pos(), "storing a device-loaned buffer in package-level var %s lets it outlive the read: copy the bytes (zero-copy lifetime rule)", l.Sel.Name)
		}
	case *ast.IndexExpr:
		pass.Reportf(l.Pos(), "storing a device-loaned buffer in a map or slice element lets it outlive the read: copy the bytes (zero-copy lifetime rule)")
	}
}
