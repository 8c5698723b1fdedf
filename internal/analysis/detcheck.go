package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DetCheck enforces the repo's determinism contract at compile time: the
// byte-identical W1-vs-W8 pipeline output that the metamorphic suites assert
// dynamically dies to exactly two classes of bug, and both are visible in the
// syntax tree.
//
// Wall-clock reads: any use of time.Now, time.Since, time.Until or the
// implicit-clock timer constructors (time.After, time.Tick, time.NewTimer,
// time.NewTicker) is flagged. Production code threads an obs.Clock
// (obs.ClockFromEnv respects STEERQ_VCLOCK); the one approved raw seam is
// obs.WallClock, which carries the steerq:allow-wallclock pragma — as must
// any other deliberate exception, with a justification.
//
// Map-iteration escapes: ranging over a map is fine as long as the visit
// order cannot be observed. The analyzer flags loops whose yielded keys or
// values escape into an outer slice (via append), an outer string (via
// concatenation), a metric label (an obs.Registry instrument call), a return
// value or a write (an fmt.Print*/Fprint* argument, or a Write/WriteString
// call on a writer declared outside the loop). Slice escapes are suppressed
// when a sort call follows the loop in the same function — the canonical
// collect-then-sort idiom. String, label, return and write escapes have no
// sorting repair and are always flagged.
var DetCheck = &Analyzer{
	Name:      "detcheck",
	Doc:       "no wall-clock reads and no map-iteration order escaping into output, outside approved seams",
	SkipTests: true,
	Run:       runDetCheck,
}

// wallClockFuncs are the time-package identifiers that read or schedule off
// the real clock.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

func runDetCheck(pass *Pass) {
	for _, f := range pass.Files {
		allowed := pragmaLines(pass.Fset, f, AllowWallclockPragma)
		checkWallClock(pass, f, allowed)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				checkMapRanges(pass, fd.Body)
			}
		}
	}
}

// checkWallClock flags every selector use of a wall-clock time function not
// covered by a steerq:allow-wallclock pragma.
func checkWallClock(pass *Pass, f *ast.File, allowed map[int]bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || !wallClockFuncs[sel.Sel.Name] {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := pass.Info.Uses[id].(*types.PkgName)
		if !ok || pn.Imported().Path() != "time" {
			return true
		}
		if allowed[pass.Fset.Position(sel.Pos()).Line] {
			return true
		}
		pass.Reportf(sel.Pos(),
			"wall-clock read time.%s breaks run-to-run determinism; thread an obs.Clock (obs.ClockFromEnv) or annotate with %q and a justification",
			sel.Sel.Name, "// "+AllowWallclockPragma)
		return true
	})
}

// mapEscape is one observed escape of a map-range variable out of the loop.
type mapEscape struct {
	pos  token.Pos
	kind string // "slice", "string", "label", "return", "write"
}

// checkMapRanges walks one function body looking for map-range statements
// whose loop variables escape, applying the collect-then-sort suppression.
func checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv := pass.Info.Types[rs.X]
		if tv.Type == nil {
			return true
		}
		if _, ok := tv.Type.Underlying().(*types.Map); !ok {
			return true
		}
		vars := rangeVars(pass, rs)
		if len(vars) == 0 {
			return true
		}
		escapes := findEscapes(pass, rs, vars)
		if len(escapes) == 0 {
			return true
		}
		sorted := sortFollows(pass, body, rs.End())
		for _, esc := range escapes {
			if esc.kind == "slice" && sorted {
				continue // collect-then-sort idiom: order is re-established
			}
			pass.Reportf(esc.pos,
				"map iteration order escapes into a %s without an intervening sort; iterate sorted keys or sort the result",
				esc.kind)
		}
		return true
	})
}

// rangeVars collects the non-blank key/value objects a range statement binds.
func rangeVars(pass *Pass, rs *ast.RangeStmt) map[types.Object]bool {
	vars := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if obj := pass.Info.Defs[id]; obj != nil {
			vars[obj] = true
		} else if obj := pass.Info.Uses[id]; obj != nil {
			vars[obj] = true // tok == ASSIGN: reusing an outer variable
		}
	}
	return vars
}

// findEscapes scans a map-range body for the five escape shapes.
func findEscapes(pass *Pass, rs *ast.RangeStmt, vars map[types.Object]bool) []mapEscape {
	var escapes []mapEscape
	var closures []*ast.FuncLit
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			closures = append(closures, fl)
		}
		return true
	})
	inClosure := func(pos token.Pos) bool {
		for _, fl := range closures {
			if fl.Pos() <= pos && pos < fl.End() {
				return true
			}
		}
		return false
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			escapes = append(escapes, assignEscapes(pass, rs, st, vars)...)
		case *ast.ReturnStmt:
			// A return inside a closure (e.g. a sort.Slice comparator) does
			// not return from the enclosing function.
			if inClosure(st.Pos()) {
				return true
			}
			for _, r := range st.Results {
				if usesAny(pass, r, vars) {
					escapes = append(escapes, mapEscape{pos: st.Pos(), kind: "return"})
					break
				}
			}
		case *ast.CallExpr:
			args, kind := outputArgs(pass, rs, st), "write"
			if _, ok := obsInstrumentCall(pass, st); ok {
				args, kind = st.Args, "label"
			}
			for _, arg := range args {
				if usesAny(pass, arg, vars) {
					escapes = append(escapes, mapEscape{pos: st.Pos(), kind: kind})
					break
				}
			}
		}
		return true
	})
	return escapes
}

// assignEscapes detects `dest = append(dest, ...loopvar...)` and
// `dest += loopvar` / `dest = dest + loopvar` where dest outlives the loop.
func assignEscapes(pass *Pass, rs *ast.RangeStmt, st *ast.AssignStmt, vars map[types.Object]bool) []mapEscape {
	var escapes []mapEscape
	for i, rhs := range st.Rhs {
		if i >= len(st.Lhs) {
			break
		}
		lhs := st.Lhs[i]
		// String concatenation: s += v, or s = s + v.
		if st.Tok == token.ADD_ASSIGN && isString(pass, lhs) && usesAny(pass, rhs, vars) && declaredOutside(pass, lhs, rs) {
			escapes = append(escapes, mapEscape{pos: st.Pos(), kind: "string"})
			continue
		}
		if bin, ok := rhs.(*ast.BinaryExpr); ok && st.Tok == token.ASSIGN && bin.Op == token.ADD &&
			isString(pass, lhs) && usesAny(pass, rhs, vars) && declaredOutside(pass, lhs, rs) {
			escapes = append(escapes, mapEscape{pos: st.Pos(), kind: "string"})
			continue
		}
		// Slice growth: dest = append(dest, ...loopvar...).
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !isBuiltinAppend(pass, call) || len(call.Args) < 2 {
			continue
		}
		escaping := false
		for _, arg := range call.Args[1:] {
			if usesAny(pass, arg, vars) {
				escaping = true
				break
			}
		}
		if !escaping || !declaredOutside(pass, lhs, rs) {
			continue
		}
		escapes = append(escapes, mapEscape{pos: st.Pos(), kind: "slice"})
	}
	return escapes
}

// sortFollows reports whether any call into package sort (or a method named
// Sort) appears after pos within the function body. The heuristic is
// deliberately permissive — a later sort re-establishes deterministic order
// for the collect-then-sort idiom, and a false negative here still fails the
// golden metrics diff in CI.
func sortFollows(pass *Pass, body *ast.BlockStmt, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || found {
			return !found
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			if id, ok := fun.X.(*ast.Ident); ok {
				if pn, ok := pass.Info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "sort" {
					found = true
				}
			}
			if fun.Sel.Name == "Sort" {
				found = true
			}
		case *ast.Ident:
			if fun.Name == "Sort" {
				found = true
			}
		}
		return !found
	})
	return found
}

// usesAny reports whether the expression references any of the given objects.
func usesAny(pass *Pass, e ast.Expr, vars map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.Info.Uses[id]; obj != nil && vars[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// declaredOutside reports whether the assignment target was declared outside
// the range statement (so writes through it survive the loop). Non-identifier
// targets (fields, index expressions) are treated as outside.
func declaredOutside(pass *Pass, lhs ast.Expr, rs *ast.RangeStmt) bool {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return true
	}
	obj := pass.Info.ObjectOf(id)
	if obj == nil {
		return false
	}
	return obj.Pos() < rs.Pos() || obj.Pos() > rs.End()
}

// isString reports whether the expression has string type.
func isString(pass *Pass, e ast.Expr) bool {
	t := pass.Info.Types[e].Type
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// isBuiltinAppend reports whether the call is the append builtin.
func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	obj := pass.Info.Uses[id]
	_, isBuiltin := obj.(*types.Builtin)
	return isBuiltin
}

// outputArgs returns the arguments a call writes as output: every argument
// of fmt.Print/Printf/Println, those after the writer of
// fmt.Fprint/Fprintf/Fprintln, and those of a Write or WriteString method
// call on a receiver declared outside rs. Any other call writes none.
func outputArgs(pass *Pass, rs *ast.RangeStmt, call *ast.CallExpr) []ast.Expr {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := pass.Info.Uses[id].(*types.PkgName); ok {
			if pn.Imported().Path() != "fmt" {
				return nil
			}
			switch sel.Sel.Name {
			case "Print", "Printf", "Println":
				return call.Args
			case "Fprint", "Fprintf", "Fprintln":
				if len(call.Args) > 0 {
					return call.Args[1:]
				}
			}
			return nil
		}
	}
	if (sel.Sel.Name == "Write" || sel.Sel.Name == "WriteString") && declaredOutside(pass, sel.X, rs) {
		return call.Args
	}
	return nil
}

// obsInstrumentCall reports whether the call registers an obs instrument
// (Registry.Counter/Gauge/GaugeFunc/Histogram or obs.NewCounter), returning
// the method name.
func obsInstrumentCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	switch name {
	case "Counter", "Gauge", "GaugeFunc", "Histogram", "NewCounter":
	default:
		return "", false
	}
	obj := pass.Info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pass.ModulePath+"/internal/obs" {
		return "", false
	}
	return name, true
}
