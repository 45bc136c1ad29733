package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Confine enforces shard confinement in the concurrent layers
// (internal/serve and internal/experiments): a closure handed to a go
// statement or scheduled as an EventQueue callback runs outside its
// creator's control flow, so the state it touches must be bound to it at
// creation time.
//
//   - It may not reach into the shard container (anything holding
//     hybrid.System values) by index or range: the shard a closure works on
//     is chosen when the closure is made, not when it runs.
//   - It may not write through captured shared state — maps, slices through
//     a shared index, or plain counters — without a declared
//     synchronization idiom. The two sanctioned idioms are per-slot slice
//     writes through a closure-local index (each goroutine owns disjoint
//     elements) and mutations under a sync.Mutex/RWMutex held inside the
//     closure. Calls on captured values are not flagged: methods of the
//     owning object are where the synchronization discipline lives, and
//     the event-loop closures in serve are calls by construction.
var Confine = &Analyzer{
	Name:     "confine",
	Doc:      "concurrent closures touch only state bound at creation",
	Run:      runConfine,
	Inspects: confineInspects,
}

func confineInspects(path string) bool {
	return pathSegment(path, "serve") || pathSegment(path, "experiments")
}

func runConfine(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.GoStmt:
				if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
					confineClosure(pass, lit, "goroutine")
				}
			case *ast.CallExpr:
				if isEventQueueSchedule(pass, st) {
					for _, a := range st.Args {
						if lit, ok := a.(*ast.FuncLit); ok {
							confineClosure(pass, lit, "event-queue callback")
						}
					}
				}
			}
			return true
		})
	}
}

// isEventQueueSchedule reports whether call is EventQueue.Schedule (matched
// by method and type name so fixtures re-declaring the shape are covered).
func isEventQueueSchedule(pass *Pass, call *ast.CallExpr) bool {
	fn := methodNamed(pass, call, "Schedule")
	if fn == nil {
		return false
	}
	sig := fn.Type().(*types.Signature)
	return typeIs(sig.Recv().Type(), "simclock", "EventQueue")
}

// confineClosure checks one concurrently-launched closure.
func confineClosure(pass *Pass, lit *ast.FuncLit, kind string) {
	captured := capturedVars(pass, lit)
	lockPositions := mutexLockPositions(pass, lit)
	synced := func(pos token.Pos) bool {
		for _, lp := range lockPositions {
			if lp < pos {
				return true
			}
		}
		return false
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.IndexExpr:
			if isShardContainer(pass, st.X) {
				pass.Reportf(st.Pos(), "%s indexes into the shard container %s: the shard a closure works on must be bound at creation, not selected when it runs (shard confinement)", kind, exprIdentName(st.X))
			}
		case *ast.RangeStmt:
			if isShardContainer(pass, st.X) {
				pass.Reportf(st.X.Pos(), "%s ranges over the shard container %s: shards must be bound at closure creation, not enumerated when it runs (shard confinement)", kind, exprIdentName(st.X))
			}
		case *ast.IncDecStmt:
			confineWrite(pass, st.X, st.Pos(), captured, synced, kind)
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				confineWrite(pass, lhs, st.Pos(), captured, synced, kind)
			}
		}
		return true
	})
}

// confineWrite flags a write through captured shared state that lacks a
// sanctioned synchronization idiom.
func confineWrite(pass *Pass, lhs ast.Expr, pos token.Pos, captured map[*types.Var]bool, synced func(token.Pos) bool, kind string) {
	// Walk the lvalue chain to the root variable, noting any index step.
	var index *ast.IndexExpr
	e := lhs
walk:
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			index = v
			e = v.X
		default:
			break walk
		}
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return
	}
	v, ok := pass.Info.Uses[id].(*types.Var)
	if !ok || !captured[v] {
		return
	}
	if synced(pos) {
		return
	}
	// Mutating state reachable from a captured shard handle (a value that
	// is, or holds, a hybrid.System) is the sanctioned bound-at-creation
	// idiom; the danger confine polices is selecting the shard inside the
	// closure, which the shard-container index check reports.
	if elemHoldsSystem(v.Type()) {
		return
	}
	if index != nil {
		if isShardContainer(pass, index.X) {
			return // already reported by the shard-container index check
		}
		if _, isMap := pass.Info.TypeOf(index.X).Underlying().(*types.Map); isMap {
			pass.Reportf(pos, "%s writes to captured map %s without synchronization: guard it with a mutex or keep it shard-local (shard confinement)", kind, exprIdentName(index.X))
			return
		}
		// Per-slot slice idiom: a closure-local index means each goroutine
		// owns disjoint elements.
		if iv := varOf(pass, index.Index); iv != nil && !captured[iv] {
			return
		}
		pass.Reportf(pos, "%s writes to captured slice %s through a shared index: use a closure-local index (per-slot idiom) or a mutex (shard confinement)", kind, exprIdentName(index.X))
		return
	}
	pass.Reportf(pos, "%s mutates captured %s without synchronization: use a mutex, an atomic, or state bound at closure creation (shard confinement)", kind, id.Name)
}

// mutexLockPositions collects the positions of Lock/RLock calls on
// sync.Mutex/RWMutex values inside lit — the declared synchronization
// idiom confineWrite accepts.
func mutexLockPositions(pass *Pass, lit *ast.FuncLit) []token.Pos {
	var out []token.Pos
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, name := range [2]string{"Lock", "RLock"} {
			fn := methodNamed(pass, call, name)
			if fn == nil {
				continue
			}
			recv := fn.Type().(*types.Signature).Recv().Type()
			if typeIs(recv, "sync", "Mutex") || typeIs(recv, "sync", "RWMutex") {
				out = append(out, call.Pos())
			}
		}
		return true
	})
	return out
}

// isShardContainer reports whether e is a slice, array, or map whose
// element type is (or is a struct holding) a hybrid.System.
func isShardContainer(pass *Pass, e ast.Expr) bool {
	t := pass.Info.TypeOf(e)
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return elemHoldsSystem(u.Elem())
	case *types.Array:
		return elemHoldsSystem(u.Elem())
	case *types.Map:
		return elemHoldsSystem(u.Elem())
	}
	return false
}

// elemHoldsSystem reports whether t (or its pointee) is hybrid.System or a
// named struct with a hybrid.System(-pointer) field.
func elemHoldsSystem(t types.Type) bool {
	if typeIs(t, "hybrid", "System") {
		return true
	}
	named := namedType(t)
	if named == nil {
		return false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if typeIs(st.Field(i).Type(), "hybrid", "System") {
			return true
		}
	}
	return false
}

// exprIdentName renders the container expression for a report: the root
// identifier or selector name.
func exprIdentName(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return v.Sel.Name
	case *ast.ParenExpr:
		return exprIdentName(v.X)
	case *ast.IndexExpr:
		return exprIdentName(v.X)
	case *ast.StarExpr:
		return exprIdentName(v.X)
	}
	return "container"
}
