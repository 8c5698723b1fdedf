// Package plan defines the logical and physical query plan representation
// shared by the binder (internal/scopeql), the Cascades optimizer
// (internal/cascades), the cost model (internal/cost) and the execution
// simulator (internal/exec).
//
// SCOPE scripts compile to directed acyclic graphs of operators with up to
// hundreds of nodes (§3.1); both logical and physical plans here are DAGs —
// an intermediate result bound to a script variable and consumed twice is
// represented by a shared node.
//
// Plans are built and walked inside every compilation, so the compile
// allocation budgets (TestCompileAllocationBudget in internal/rules,
// TestSessionWarmCompileAllocations in internal/cascades) count this
// package's allocations too.
package plan

import (
	"fmt"
	"strconv"
	"strings"
)

// ColumnID uniquely identifies a column within one job's plan. The binder
// assigns IDs; rewrites preserve them so predicates remain valid as operators
// move.
type ColumnID int

// Column is a resolved output column of an operator.
type Column struct {
	ID ColumnID
	// Name is the user-visible name ("cnt", "a").
	Name string
	// Source is the base stream and column this value descends from
	// ("events.user_id"), or "" for computed columns. The cardinality
	// estimator and the execution oracle use Source to look up catalog
	// statistics.
	Source string
}

func (c Column) String() string {
	if c.Source != "" {
		return fmt.Sprintf("%s#%d(%s)", c.Name, c.ID, c.Source)
	}
	return fmt.Sprintf("%s#%d", c.Name, c.ID)
}

// ExprKind enumerates scalar expression forms.
type ExprKind int

// Scalar expression kinds.
const (
	ExprColumn ExprKind = iota // column reference
	ExprConst                  // literal constant
	ExprCmp                    // comparison: Args[0] op Args[1]
	ExprAnd                    // conjunction of Args
	ExprOr                     // disjunction of Args
	ExprArith                  // arithmetic: Args[0] op Args[1]
	ExprFunc                   // scalar function call
)

// CmpOp enumerates comparison and arithmetic operators.
type CmpOp int

// Comparison and arithmetic operators.
const (
	OpEQ CmpOp = iota
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
	OpAdd
	OpSub
	OpMul
	OpDiv
)

var cmpNames = [...]string{"==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/"}

func (o CmpOp) String() string { return cmpNames[o] }

// Literal is a constant value. Only numeric and string constants appear in
// the SCOPE-like dialect.
type Literal struct {
	IsString bool
	F        float64
	S        string
}

func (l Literal) String() string {
	if l.IsString {
		return strconv.Quote(l.S)
	}
	return strconv.FormatFloat(l.F, 'g', -1, 64)
}

// Expr is a scalar expression tree.
type Expr struct {
	Kind ExprKind
	Col  Column  // ExprColumn
	Lit  Literal // ExprConst
	Op   CmpOp   // ExprCmp, ExprArith
	Fn   string  // ExprFunc
	Args []*Expr
}

// ColExpr returns a column reference expression.
func ColExpr(c Column) *Expr { return &Expr{Kind: ExprColumn, Col: c} }

// NumExpr returns a numeric literal expression.
func NumExpr(v float64) *Expr { return &Expr{Kind: ExprConst, Lit: Literal{F: v}} }

// StrExpr returns a string literal expression.
func StrExpr(s string) *Expr { return &Expr{Kind: ExprConst, Lit: Literal{IsString: true, S: s}} }

// Cmp returns a comparison expression l op r.
func Cmp(op CmpOp, l, r *Expr) *Expr { return &Expr{Kind: ExprCmp, Op: op, Args: []*Expr{l, r}} }

// And returns the conjunction of the given predicates. It flattens nested
// conjunctions and returns nil for no arguments, the sole argument for one.
func And(preds ...*Expr) *Expr {
	var flat []*Expr
	for _, p := range preds {
		if p == nil {
			continue
		}
		if p.Kind == ExprAnd {
			flat = append(flat, p.Args...)
		} else {
			flat = append(flat, p)
		}
	}
	switch len(flat) {
	case 0:
		return nil
	case 1:
		return flat[0]
	}
	return &Expr{Kind: ExprAnd, Args: flat}
}

// Or returns the disjunction of the given predicates.
func Or(preds ...*Expr) *Expr {
	var flat []*Expr
	for _, p := range preds {
		if p == nil {
			continue
		}
		if p.Kind == ExprOr {
			flat = append(flat, p.Args...)
		} else {
			flat = append(flat, p)
		}
	}
	switch len(flat) {
	case 0:
		return nil
	case 1:
		return flat[0]
	}
	return &Expr{Kind: ExprOr, Args: flat}
}

// Conjuncts splits a predicate into its top-level conjuncts. A nil predicate
// yields nil.
func Conjuncts(e *Expr) []*Expr {
	if e == nil {
		return nil
	}
	if e.Kind == ExprAnd {
		return e.Args
	}
	return []*Expr{e}
}

// Columns appends the IDs of all columns referenced by e to dst and returns
// the result.
func (e *Expr) Columns(dst []ColumnID) []ColumnID {
	if e == nil {
		return dst
	}
	if e.Kind == ExprColumn {
		return append(dst, e.Col.ID)
	}
	for _, a := range e.Args {
		dst = a.Columns(dst)
	}
	return dst
}

// RefersOnly reports whether every column referenced by e is in the given
// set. Rewrite rules use it to decide pushdown legality.
func (e *Expr) RefersOnly(set map[ColumnID]bool) bool {
	if e == nil {
		return true
	}
	if e.Kind == ExprColumn {
		return set[e.Col.ID]
	}
	for _, a := range e.Args {
		if !a.RefersOnly(set) {
			return false
		}
	}
	return true
}

// EquiJoinSides splits an equality comparison into its two column sides if e
// has the form colA == colB; ok is false otherwise.
func (e *Expr) EquiJoinSides() (a, b Column, ok bool) {
	if e == nil || e.Kind != ExprCmp || e.Op != OpEQ || len(e.Args) != 2 {
		return Column{}, Column{}, false
	}
	l, r := e.Args[0], e.Args[1]
	if l.Kind != ExprColumn || r.Kind != ExprColumn {
		return Column{}, Column{}, false
	}
	return l.Col, r.Col, true
}

// String renders the expression in SCOPE-like syntax.
func (e *Expr) String() string {
	if e == nil {
		return "<nil>"
	}
	switch e.Kind {
	case ExprColumn:
		return e.Col.Name
	case ExprConst:
		return e.Lit.String()
	case ExprCmp, ExprArith:
		return fmt.Sprintf("(%s %s %s)", e.Args[0], e.Op, e.Args[1])
	case ExprAnd:
		return joinExprs(e.Args, " AND ")
	case ExprOr:
		return joinExprs(e.Args, " OR ")
	case ExprFunc:
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			parts[i] = a.String()
		}
		return fmt.Sprintf("%s(%s)", e.Fn, strings.Join(parts, ", "))
	}
	return "<expr?>"
}

func joinExprs(args []*Expr, sep string) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

// Clone returns a deep copy of the expression. Rewrite rules clone before
// mutating so memo expressions stay immutable.
func (e *Expr) Clone() *Expr {
	if e == nil {
		return nil
	}
	cp := *e
	if len(e.Args) > 0 {
		cp.Args = make([]*Expr, len(e.Args))
		for i, a := range e.Args {
			cp.Args[i] = a.Clone()
		}
	}
	return &cp
}
