package analysis

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces the context discipline the *Ctx method family established
// in internal/par, internal/faults and internal/steering:
//
//   - a function named with the Ctx suffix takes context.Context as its
//     first parameter — the suffix is the API promise that cancellation
//     propagates;
//   - a function that already has a context in scope never manufactures a
//     fresh root with context.Background() or context.TODO(); the in-scope
//     context is threaded instead (this is the bug that silently detaches a
//     subtree from pipeline cancellation);
//   - no struct stores a context.Context field — contexts flow through call
//     chains, never through state (the contextcheck rule from the stdlib's
//     own documentation).
//
// Non-Ctx wrappers (Analyze calling AnalyzeCtx(context.Background(), ...))
// have no context in scope and stay legal: that is precisely the sanctioned
// place to mint a root context.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "Ctx-suffixed functions take context first, in-scope contexts are propagated (not re-rooted), and contexts are never stored in structs",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				checkCtxSignature(pass, d)
				if d.Body != nil {
					checkCtxPropagation(pass, d.Body, ctxParamName(pass, d.Type))
				}
			case *ast.GenDecl:
				checkCtxFields(pass, d)
			}
		}
	}
}

// checkCtxSignature flags Ctx-suffixed functions whose first parameter is not
// a context.Context.
func checkCtxSignature(pass *Pass, fn *ast.FuncDecl) {
	name := fn.Name.Name
	if len(name) <= 3 || name[len(name)-3:] != "Ctx" {
		return
	}
	params := fn.Type.Params
	if params != nil && len(params.List) > 0 && isContextType(pass, params.List[0].Type) {
		return
	}
	pass.Reportf(fn.Pos(), "%s has the Ctx suffix but does not take context.Context as its first parameter", name)
}

// checkCtxPropagation walks one function scope. ctxName is the innermost
// in-scope context parameter ("" when none); nested literals that declare
// their own context parameter shadow it, and literals without one inherit it
// by capture.
func checkCtxPropagation(pass *Pass, body *ast.BlockStmt, ctxName string) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			inner := ctxParamName(pass, e.Type)
			if inner == "" {
				inner = ctxName
			}
			checkCtxPropagation(pass, e.Body, inner)
			return false
		case *ast.CallExpr:
			if ctxName == "" {
				return true
			}
			for _, arg := range e.Args {
				if isCtxRoot(pass, arg) {
					pass.Reportf(arg.Pos(),
						"context root minted with a context parameter %s in scope; propagate %s instead of detaching from cancellation",
						ctxName, ctxName)
				}
			}
		}
		return true
	})
}

// checkCtxFields flags struct types with a context.Context field.
func checkCtxFields(pass *Pass, d *ast.GenDecl) {
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok || st.Fields == nil {
			continue
		}
		for _, field := range st.Fields.List {
			if isContextType(pass, field.Type) {
				pass.Reportf(field.Pos(), "struct %s stores a context.Context; pass contexts through call chains, not state", ts.Name.Name)
			}
		}
	}
}

// ctxParamName returns the name of the first context.Context parameter of a
// function type, "" when absent or blank.
func ctxParamName(pass *Pass, ft *ast.FuncType) string {
	if ft.Params == nil {
		return ""
	}
	for _, field := range ft.Params.List {
		if !isContextType(pass, field.Type) {
			continue
		}
		for _, name := range field.Names {
			if name.Name != "_" {
				return name.Name
			}
		}
		return ""
	}
	return ""
}

// isCtxRoot recognizes context.Background() and context.TODO() calls.
func isCtxRoot(pass *Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
		return false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "context"
}

// isContextType reports whether the type expression denotes context.Context.
func isContextType(pass *Pass, e ast.Expr) bool {
	t := pass.Info.Types[e].Type
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
