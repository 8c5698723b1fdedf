package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockCheck audits every sync.Mutex / sync.RWMutex interaction inside one
// function scope (closures are separate scopes — a goroutine body locking a
// pool mutex is analyzed on its own):
//
//   - a Lock (or RLock) with no matching unlock anywhere in the scope;
//   - RLock paired with Unlock, or Lock paired with RUnlock — both runtime
//     faults on RWMutex;
//   - a return statement between an inline Lock and its inline Unlock — the
//     classic leaked-lock bug that defer exists to prevent (scopes that defer
//     the unlock are exempt).
//
// Mutexes copied by value are go vet's copylocks check, which ci.sh runs.
//
// The scope-local pairing is intentionally conservative: lock helpers that
// acquire in one function and release in another are rare enough here that
// they are restructured into one scope rather than complicating the analysis.
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "mutexes unlock on every return path and RLock pairs with RUnlock",
	Run:  runLockCheck,
}

// lockOp is one mutex method call inside a scope.
type lockOp struct {
	key      string // canonical receiver expression, e.g. "s.mu"
	name     string // Lock, Unlock, RLock, RUnlock
	pos      token.Pos
	deferred bool
}

func runLockCheck(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkLockScope(pass, fn.Body)
				}
			case *ast.FuncLit:
				checkLockScope(pass, fn.Body)
			}
			return true
		})
	}
}

// checkLockScope collects the scope's lock operations and return positions
// (excluding nested function literals) and runs the pairing checks.
func checkLockScope(pass *Pass, body *ast.BlockStmt) {
	var ops []lockOp
	var returns []token.Pos
	walkScope(body, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.ReturnStmt:
			returns = append(returns, st.Pos())
		case *ast.DeferStmt:
			if op, ok := mutexOp(pass, st.Call); ok {
				op.deferred = true
				ops = append(ops, op)
			}
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if op, ok := mutexOp(pass, call); ok {
					ops = append(ops, op)
				}
			}
		}
	})
	if len(ops) == 0 {
		return
	}
	byKey := make(map[string][]lockOp)
	for _, op := range ops {
		byKey[op.key] = append(byKey[op.key], op)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		checkPairing(pass, k, byKey[k], returns)
	}
}

// checkPairing runs the per-receiver checks over one scope's ops.
func checkPairing(pass *Pass, key string, ops []lockOp, returns []token.Pos) {
	count := func(name string) int {
		n := 0
		for _, op := range ops {
			if op.name == name {
				n++
			}
		}
		return n
	}
	locks, unlocks := count("Lock"), count("Unlock")
	rlocks, runlocks := count("RLock"), count("RUnlock")
	first := ops[0]

	switch {
	case locks > 0 && unlocks == 0 && runlocks > 0:
		pass.Reportf(first.pos, "%s.Lock() released with RUnlock(); a write lock must pair with Unlock()", key)
		return
	case rlocks > 0 && runlocks == 0 && unlocks > 0:
		pass.Reportf(first.pos, "%s.RLock() released with Unlock(); a read lock must pair with RUnlock()", key)
		return
	case locks > 0 && unlocks == 0:
		pass.Reportf(first.pos, "%s.Lock() is never unlocked in this function", key)
		return
	case rlocks > 0 && runlocks == 0:
		pass.Reportf(first.pos, "%s.RLock() is never runlocked in this function", key)
		return
	}

	// Leaked-lock check: with no deferred unlock covering the scope, a return
	// between an acquire and its next release leaves the mutex held.
	for _, op := range ops {
		if op.deferred {
			return
		}
	}
	for _, acquire := range []string{"Lock", "RLock"} {
		release := "Unlock"
		if acquire == "RLock" {
			release = "RUnlock"
		}
		var lockPos token.Pos = token.NoPos
		for _, op := range ops {
			switch op.name {
			case acquire:
				if lockPos == token.NoPos {
					lockPos = op.pos
				}
			case release:
				if lockPos != token.NoPos {
					for _, r := range returns {
						if r > lockPos && r < op.pos {
							pass.Reportf(r, "return between %s.%s() and %s.%s() leaves the mutex held; unlock first or use defer", key, acquire, key, release)
						}
					}
					lockPos = token.NoPos
				}
			}
		}
	}
}

// walkScope visits the statements of one function scope, not descending into
// nested function literals (each literal is its own scope).
func walkScope(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// mutexOp recognizes a call as a sync mutex method invocation.
func mutexOp(pass *Pass, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return lockOp{}, false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockOp{}, false
	}
	return lockOp{key: types.ExprString(sel.X), name: name, pos: call.Pos()}, true
}
