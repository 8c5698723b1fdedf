package scopeql

import "fmt"

// Script is a parsed SCOPE-like job: a sequence of variable assignments and
// OUTPUT statements.
type Script struct {
	Stmts []Stmt
}

// Stmt is a top-level statement.
type Stmt interface{ stmt() }

// AssignStmt binds a relational expression to a script variable.
type AssignStmt struct {
	Name string
	Rel  RelExpr
	Pos  Pos
}

// OutputStmt writes a bound variable to a path.
type OutputStmt struct {
	Name string
	Path string
	Pos  Pos
}

func (*AssignStmt) stmt() {}
func (*OutputStmt) stmt() {}

// RelExpr is a relational expression.
type RelExpr interface{ rel() }

// VarRef references a previously bound script variable.
type VarRef struct {
	Name string
	Pos  Pos
}

// ExtractExpr reads named columns from an input stream.
type ExtractExpr struct {
	Columns []string
	Stream  string
	Pos     Pos
}

// SelectExpr is a SELECT statement with optional joins, filtering, grouping
// and top-N.
type SelectExpr struct {
	Top     int // 0 = no TOP clause
	Items   []SelectItem
	Star    bool
	From    TableRef
	Joins   []JoinClause
	Where   ScalarExpr
	GroupBy []ColName
	Having  ScalarExpr
	OrderBy []OrderKey
	Pos     Pos
}

// SelectItem is one projected expression with an optional alias.
type SelectItem struct {
	Expr  ScalarExpr
	Alias string
}

// TableRef is a FROM/JOIN source: either a bound variable, a quoted stream
// path, or a parenthesized subexpression, with an optional alias.
type TableRef struct {
	Var    string  // non-empty for variable references
	Stream string  // non-empty for direct stream reads
	Sub    RelExpr // non-nil for (subquery)
	Alias  string
	Pos    Pos
}

// JoinClause is one INNER JOIN ... ON ... clause.
type JoinClause struct {
	Right TableRef
	On    ScalarExpr
	Pos   Pos
}

// OrderKey is one ORDER BY column.
type OrderKey struct {
	Col  ColName
	Desc bool
}

// UnionExpr is an n-ary UNION ALL of relational terms.
type UnionExpr struct {
	Terms []RelExpr
	Pos   Pos
}

// ProcessExpr applies a user-defined row processor to a source.
type ProcessExpr struct {
	Source RelExpr
	UDO    string
	Pos    Pos
}

// ReduceExpr applies a user-defined reducer per key group.
type ReduceExpr struct {
	Source RelExpr
	Keys   []ColName
	UDO    string
	Pos    Pos
}

func (*VarRef) rel()      {}
func (*ExtractExpr) rel() {}
func (*SelectExpr) rel()  {}
func (*UnionExpr) rel()   {}
func (*ProcessExpr) rel() {}
func (*ReduceExpr) rel()  {}

// ScalarExpr is a scalar expression in predicates and projections.
type ScalarExpr interface{ scalar() }

// ColName is a possibly qualified column reference "alias.col" or "col".
type ColName struct {
	Qualifier string
	Name      string
	Pos       Pos
}

// NumLit is a numeric literal.
type NumLit struct {
	Value float64
	Pos   Pos
}

// StrLit is a string literal.
type StrLit struct {
	Value string
	Pos   Pos
}

// BinExpr is a binary operation: comparison, arithmetic, AND or OR
// (Op holds the surface operator text, e.g. "==", "AND", "+").
type BinExpr struct {
	Op   string
	L, R ScalarExpr
	Pos  Pos
}

// CallExpr is a function call; aggregate calls (COUNT/SUM/...) appear only in
// SELECT items of grouped queries. Star marks COUNT(*).
type CallExpr struct {
	Fn   string
	Args []ScalarExpr
	Star bool
	Pos  Pos
}

func (*ColName) scalar()  {}
func (*NumLit) scalar()   {}
func (*StrLit) scalar()   {}
func (*BinExpr) scalar()  {}
func (*CallExpr) scalar() {}

func (c ColName) String() string {
	if c.Qualifier != "" {
		return fmt.Sprintf("%s.%s", c.Qualifier, c.Name)
	}
	return c.Name
}
