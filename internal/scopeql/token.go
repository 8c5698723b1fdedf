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
type TokenKind uint8

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
	// code is the keyword of a TokKeyword and the symbol of a TokSymbol
	// (zero for other kinds), so the parser probes a token by one byte.
	code uint8
	Text string // keyword text is upper-cased; others verbatim
	Pos  Pos
}

// Pos is a 1-based line/column source position.
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// keyword identifies a keyword of the dialect by its index in keywords.
type keyword uint8

// Keywords, in the order of the keywords table. The aggregate functions come
// last, from kwCount on.
const (
	_ keyword = iota
	kwSelect
	kwTop
	kwFrom
	kwAs
	kwInner
	kwJoin
	kwOn
	kwWhere
	kwGroup
	kwBy
	kwHaving
	kwOrder
	kwUnion
	kwAll
	kwExtract
	kwOutput
	kwTo
	kwProcess
	kwReduce
	kwUsing
	kwDesc
	kwAsc
	kwAnd
	kwOr
	kwCount
	kwSum
	kwMin
	kwMax
	kwAvg
)

// keywords spells every keyword of the dialect, upper-cased. Keywords are
// case-insensitive as in SCOPE, and every keyword token shares the table's
// text. The lexer's lookup (keywordSlots) is derived from this table.
var keywords = [...]string{
	kwSelect: "SELECT", kwTop: "TOP", kwFrom: "FROM", kwAs: "AS",
	kwInner: "INNER", kwJoin: "JOIN", kwOn: "ON", kwWhere: "WHERE",
	kwGroup: "GROUP", kwBy: "BY", kwHaving: "HAVING", kwOrder: "ORDER",
	kwUnion: "UNION", kwAll: "ALL", kwExtract: "EXTRACT", kwOutput: "OUTPUT",
	kwTo: "TO", kwProcess: "PROCESS", kwReduce: "REDUCE", kwUsing: "USING",
	kwDesc: "DESC", kwAsc: "ASC", kwAnd: "AND", kwOr: "OR",
	kwCount: "COUNT", kwSum: "SUM", kwMin: "MIN", kwMax: "MAX", kwAvg: "AVG",
}

// isAggregate reports whether k is one of the keyword-functions treated as
// aggregate calls (COUNT, SUM, MIN, MAX, AVG).
func isAggregate(k keyword) bool { return k >= kwCount }

// symbol identifies a symbol of the dialect by its index in symbols.
type symbol uint8

// Symbols, in the order of the symbols table: the six comparison operators
// first.
const (
	_ symbol = iota
	symEQ
	symNE
	symLT
	symLE
	symGT
	symGE
	symPlus
	symMinus
	symStar
	symSlash
	symAssign
	symLParen
	symRParen
	symComma
	symSemi
	symDot
)

// symbols spells every symbol of the dialect; a symbol token's Text is the
// table's entry. Each two-character symbol is a one-byte prefix and '='.
var symbols = [...]string{
	symEQ: "==", symNE: "!=", symLT: "<", symLE: "<=", symGT: ">", symGE: ">=",
	symPlus: "+", symMinus: "-", symStar: "*", symSlash: "/",
	symAssign: "=", symLParen: "(", symRParen: ")", symComma: ",", symSemi: ";", symDot: ".",
}

// isComparison reports whether s is one of the six comparison operators.
func isComparison(s symbol) bool { return symEQ <= s && s <= symGE }

// Error is a front-end error carrying a source position.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("scopeql: %s: %s", e.Pos, e.Msg) }

func errf(pos Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
