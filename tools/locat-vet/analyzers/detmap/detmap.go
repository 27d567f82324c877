// Package detmap flags map iteration whose (randomized) order can escape
// a deterministic package.
//
// Go randomizes map iteration order per run. Inside the deterministic
// packages that is fine for order-insensitive folds (integer sums, max, set
// building), but the moment iteration order reaches an appended slice that
// is not subsequently sorted, a channel send, a value returned from inside
// the loop, or a floating-point accumulator (float addition rounds, so the
// sum's last bits depend on the order of its terms), the package's output
// depends on the runtime's hash seed and the bit-for-bit replay contract is
// broken.
package detmap

import (
	"go/ast"
	"go/token"
	"go/types"

	"locat/tools/locat-vet/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "detmap",
	Doc: "flags range-over-map whose iteration order can reach an appended slice (without a later sort), " +
		"a channel send, a returned value, or a floating-point += / -= accumulator in deterministic packages",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.IsDeterministic(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		for _, body := range functionBodies(file) {
			checkBody(pass, body)
		}
	}
	return nil
}

// functionBodies returns every function body in file: declarations and
// literals. Each is analyzed independently so escape checks stay local.
func functionBodies(file *ast.File) []*ast.BlockStmt {
	var bodies []*ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				bodies = append(bodies, n.Body)
			}
		case *ast.FuncLit:
			if n.Body != nil {
				bodies = append(bodies, n.Body)
			}
		}
		return true
	})
	return bodies
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	// Find range-over-map statements directly in this body (nested
	// function literals are separate bodies).
	inspectLocal(body, func(n ast.Node) {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			return
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return
		}
		checkRange(pass, body, rng)
	})
}

func checkRange(pass *analysis.Pass, body *ast.BlockStmt, rng *ast.RangeStmt) {
	loopVars := rangeVarObjects(pass.TypesInfo, rng)

	type appendTarget struct {
		obj  types.Object // nil when the target is not a plain identifier
		name string
		pos  token.Pos
	}
	var appends []appendTarget

	inspectLocal(rng.Body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(),
				"channel send inside range over map publishes values in randomized iteration order; iterate sorted keys instead")
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if usesAnyObject(pass.TypesInfo, res, loopVars) {
					pass.Reportf(n.Pos(),
						"return of a loop variable from inside range over map picks an arbitrary element; iterate sorted keys or select deterministically")
					break
				}
			}
		case *ast.AssignStmt:
			if (n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN) && isFloat(pass.TypesInfo, n.Lhs[0]) &&
				!declaredWithin(pass.TypesInfo, n.Lhs[0], rng.Body) {
				pass.Reportf(n.Pos(),
					"floating-point %s on %s inside range over map rounds in randomized iteration order; iterate sorted keys or a slice instead",
					n.Tok, analysis.ExprString(n.Lhs[0]))
			}
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass.TypesInfo, call) {
					continue
				}
				// Pair each append with its assignment target.
				var lhs ast.Expr
				if len(n.Lhs) == len(n.Rhs) {
					lhs = n.Lhs[i]
				} else if len(n.Lhs) == 1 {
					lhs = n.Lhs[0]
				}
				if lhs == nil {
					continue
				}
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if id.Name == "_" {
						continue
					}
					obj := pass.TypesInfo.Defs[id]
					if obj == nil {
						obj = pass.TypesInfo.Uses[id]
					}
					appends = append(appends, appendTarget{obj: obj, name: id.Name, pos: call.Pos()})
				} else {
					appends = append(appends, appendTarget{name: analysis.ExprString(lhs), pos: call.Pos()})
				}
			}
		}
	})

	for _, a := range appends {
		if sortedAfter(pass.TypesInfo, body, rng.End(), a.obj, a.name) {
			continue
		}
		pass.Reportf(a.pos,
			"append to %s inside range over map accumulates in randomized iteration order and %s is never sorted afterwards; sort it or iterate sorted keys",
			a.name, a.name)
	}
}

// sortedAfter reports whether a call into package sort or slices that
// mentions the append target appears after the loop in the same function.
func sortedAfter(info *types.Info, body *ast.BlockStmt, after token.Pos, obj types.Object, name string) bool {
	found := false
	inspectLocal(body, func(n ast.Node) {
		if found {
			return
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < after {
			return
		}
		fn := analysis.Callee(info, call)
		if fn == nil || fn.Pkg() == nil {
			return
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return
		}
		for _, arg := range call.Args {
			if obj != nil && usesAnyObject(info, arg, map[types.Object]bool{obj: true}) {
				found = true
				return
			}
			if obj == nil && analysis.ExprString(arg) == name {
				found = true
				return
			}
		}
	})
	return found
}

// rangeVarObjects collects the objects bound to the range's key and value.
func rangeVarObjects(info *types.Info, rng *ast.RangeStmt) map[types.Object]bool {
	objs := make(map[types.Object]bool, 2)
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if e == nil {
			continue
		}
		if id, ok := ast.Unparen(e).(*ast.Ident); ok && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
				objs[obj] = true
			} else if obj := info.Uses[id]; obj != nil {
				objs[obj] = true
			}
		}
	}
	return objs
}

func usesAnyObject(info *types.Info, e ast.Expr, objs map[types.Object]bool) bool {
	if len(objs) == 0 {
		return false
	}
	used := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && objs[obj] {
				used = true
				return false
			}
		}
		return !used
	})
	return used
}

// isFloat reports whether e has a floating-point or complex type, whose
// addition is not associative.
func isFloat(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// declaredWithin reports whether the variable at the root of e (x in x,
// x.f or x[i]) is declared inside block: an accumulator that lives for one
// iteration sees its terms in an order the iteration fixes.
func declaredWithin(info *types.Info, e ast.Expr, block *ast.BlockStmt) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			obj := info.Uses[x]
			return obj != nil && block.Pos() <= obj.Pos() && obj.Pos() < block.End()
		default:
			return false
		}
	}
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// inspectLocal walks n in source order without descending into nested
// function literals, whose bodies are analyzed on their own.
func inspectLocal(n ast.Node, f func(ast.Node)) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		if m != nil {
			f(m)
		}
		return true
	})
}
