// Package scopeql implements the front end for a SCOPE-like scripting
// language: a lexer, a recursive-descent parser, and a binder that resolves
// scripts against a catalog into logical plan DAGs (internal/plan).
//
// SCOPE scripts are data flows of multiple SQL-like statements mixing
// relational operators with user-defined PROCESS and REDUCE operators (§3.1).
// A script ("job") looks like:
//
//	filtered = SELECT user_id, region, amount
//	           FROM "shop/orders"
//	           WHERE amount > 100 AND region == "EU";
//	joined   = SELECT f.user_id, u.segment, f.amount
//	           FROM filtered AS f
//	           INNER JOIN "shop/users" AS u ON f.user_id == u.user_id;
//	agg      = SELECT segment, SUM(amount) AS total
//	           FROM joined GROUP BY segment;
//	cooked   = PROCESS agg USING SegmentScorer;
//	OUTPUT cooked TO "out/segment_totals";
package scopeql

import "fmt"

// TokenKind enumerates lexical token classes.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokNumber
	TokString
	TokKeyword
	TokSymbol
)

var tokNames = [...]string{"EOF", "identifier", "number", "string", "keyword", "symbol"}

func (k TokenKind) String() string { return tokNames[k] }

// Token is one lexical token with its source position.
type Token struct {
	Kind TokenKind
	Text string // keyword text is upper-cased; others verbatim
	Pos  Pos
}

// Pos is a 1-based line/column source position.
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// keywords of the dialect, each mapped to itself: the lexer upper-cases
// candidate identifiers and looks them up, so keywords are case-insensitive
// as in SCOPE and every keyword token shares the table's text.
var keywords = selfMap(
	"SELECT", "TOP", "FROM", "AS",
	"INNER", "JOIN", "ON", "WHERE",
	"GROUP", "BY", "HAVING", "ORDER",
	"UNION", "ALL", "EXTRACT", "OUTPUT",
	"TO", "PROCESS", "REDUCE", "USING",
	"DESC", "ASC", "AND", "OR",
	"COUNT", "SUM", "MIN", "MAX", "AVG",
)

func selfMap(words ...string) map[string]string {
	m := make(map[string]string, len(words))
	for _, w := range words {
		m[w] = w
	}
	return m
}

// aggregates are the keyword-functions treated as aggregate calls.
var aggregates = map[string]bool{
	"COUNT": true, "SUM": true, "MIN": true, "MAX": true, "AVG": true,
}

// Error is a front-end error carrying a source position.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("scopeql: %s: %s", e.Pos, e.Msg) }

func errf(pos Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
