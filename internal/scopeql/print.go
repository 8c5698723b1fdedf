package scopeql

import (
	"strconv"
	"strings"
)

// Print renders a parsed script back to canonical source text. The output
// always reparses, and reparsing yields a structurally identical script
// (positions aside): Parse∘Print is the identity on ASTs, which makes
// Print∘Parse idempotent on source text. Canonical choices: keywords
// upper-cased, one statement per line, explicit INNER JOIN, minimal
// parentheses (inserted only where precedence or the grammar demands them),
// DESC spelled out and ASC left implicit.
func Print(s *Script) string {
	var b strings.Builder
	for _, st := range s.Stmts {
		printStmt(&b, st)
		b.WriteString(";\n")
	}
	return b.String()
}

func printStmt(b *strings.Builder, st Stmt) {
	switch st := st.(type) {
	case *AssignStmt:
		b.WriteString(st.Name)
		b.WriteString(" = ")
		printRel(b, st.Rel)
	case *OutputStmt:
		b.WriteString("OUTPUT ")
		b.WriteString(st.Name)
		b.WriteString(" TO ")
		printString(b, st.Path)
	}
}

func printRel(b *strings.Builder, r RelExpr) {
	switch r := r.(type) {
	case *VarRef:
		b.WriteString(r.Name)
	case *ExtractExpr:
		b.WriteString("EXTRACT ")
		for i, c := range r.Columns {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c)
		}
		b.WriteString(" FROM ")
		printString(b, r.Stream)
	case *SelectExpr:
		printSelect(b, r)
	case *UnionExpr:
		for i, t := range r.Terms {
			if i > 0 {
				b.WriteString(" UNION ALL ")
			}
			// A nested union must be parenthesized or the flat UNION ALL
			// loop would absorb its terms into this level.
			if _, nested := t.(*UnionExpr); nested {
				b.WriteString("(")
				printRel(b, t)
				b.WriteString(")")
			} else {
				printRel(b, t)
			}
		}
	case *ProcessExpr:
		b.WriteString("PROCESS ")
		printRelSource(b, r.Source)
		b.WriteString(" USING ")
		b.WriteString(r.UDO)
	case *ReduceExpr:
		b.WriteString("REDUCE ")
		printRelSource(b, r.Source)
		b.WriteString(" ON ")
		printCols(b, r.Keys)
		b.WriteString(" USING ")
		b.WriteString(r.UDO)
	}
}

// printRelSource renders the source of PROCESS/REDUCE, which the grammar
// restricts to a bare variable or a parenthesized expression.
func printRelSource(b *strings.Builder, r RelExpr) {
	if v, ok := r.(*VarRef); ok {
		b.WriteString(v.Name)
		return
	}
	b.WriteString("(")
	printRel(b, r)
	b.WriteString(")")
}

func printSelect(b *strings.Builder, s *SelectExpr) {
	b.WriteString("SELECT ")
	if s.Top > 0 {
		b.WriteString("TOP ")
		b.WriteString(strconv.Itoa(s.Top))
		b.WriteString(" ")
	}
	if s.Star {
		b.WriteString("*")
	} else {
		for i, item := range s.Items {
			if i > 0 {
				b.WriteString(", ")
			}
			// Select items parse at additive precedence; anything looser
			// needs explicit parentheses.
			printScalar(b, item.Expr, precAdd)
			if item.Alias != "" {
				b.WriteString(" AS ")
				b.WriteString(item.Alias)
			}
		}
	}
	b.WriteString(" FROM ")
	printTableRef(b, s.From)
	for _, j := range s.Joins {
		b.WriteString(" INNER JOIN ")
		printTableRef(b, j.Right)
		b.WriteString(" ON ")
		printScalar(b, j.On, precOr)
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		printScalar(b, s.Where, precOr)
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		printCols(b, s.GroupBy)
	}
	if s.Having != nil {
		b.WriteString(" HAVING ")
		printScalar(b, s.Having, precOr)
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, k := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(k.Col.String())
			if k.Desc {
				b.WriteString(" DESC")
			}
		}
	}
}

func printTableRef(b *strings.Builder, r TableRef) {
	switch {
	case r.Sub != nil:
		b.WriteString("(")
		printRel(b, r.Sub)
		b.WriteString(")")
	case r.Var != "":
		b.WriteString(r.Var)
	default:
		// The empty string is a lexable stream path, so Stream == "" does
		// not mean "absent" here.
		printString(b, r.Stream)
	}
	if r.Alias != "" {
		b.WriteString(" AS ")
		b.WriteString(r.Alias)
	}
}

func printCols(b *strings.Builder, cols []ColName) {
	for i, c := range cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.String())
	}
}

// Scalar precedence levels, mirroring the parser's grammar ladder
// (orExpr < andExpr < cmpExpr < addExpr < mulExpr < unary).
const (
	precOr   = 1
	precAnd  = 2
	precCmp  = 3
	precAdd  = 4
	precMul  = 5
	precAtom = 6
)

func scalarPrec(e ScalarExpr) int {
	be, ok := e.(*BinExpr)
	if !ok {
		return precAtom
	}
	switch be.Op {
	case "OR":
		return precOr
	case "AND":
		return precAnd
	case "+", "-":
		return precAdd
	case "*", "/":
		return precMul
	default:
		return precCmp
	}
}

// printScalar renders e, parenthesizing it when its precedence is below what
// the surrounding grammar position requires.
func printScalar(b *strings.Builder, e ScalarExpr, min int) {
	if scalarPrec(e) < min {
		b.WriteString("(")
		printScalar(b, e, precOr)
		b.WriteString(")")
		return
	}
	switch e := e.(type) {
	case *ColName:
		b.WriteString(e.String())
	case *NumLit:
		// 'f' with minimal digits stays inside the lexer's number syntax
		// (no exponent) and reparses to the identical float64.
		b.WriteString(strconv.FormatFloat(e.Value, 'f', -1, 64))
	case *StrLit:
		printString(b, e.Value)
	case *CallExpr:
		b.WriteString(e.Fn)
		b.WriteString("(")
		if e.Star {
			b.WriteString("*")
		} else {
			for i, a := range e.Args {
				if i > 0 {
					b.WriteString(", ")
				}
				// Call arguments parse at additive precedence.
				printScalar(b, a, precAdd)
			}
		}
		b.WriteString(")")
	case *BinExpr:
		p := scalarPrec(e)
		// Left-associative operators reparse correctly with the left child
		// at the operator's own level and the right child one tighter. The
		// single non-associative comparison needs both sides at additive
		// precedence or "a == b == c" would not parse at all.
		lmin, rmin := p, p+1
		if p == precCmp {
			lmin = precAdd
			rmin = precAdd
		}
		printScalar(b, e.L, lmin)
		b.WriteString(" ")
		b.WriteString(e.Op)
		b.WriteString(" ")
		printScalar(b, e.R, rmin)
	}
}

// printString renders a string literal. The lexer admits no escapes, so the
// only unprintable contents are a double quote or a newline — which no parsed
// string can contain. Print substitutes a placeholder rather than emit source
// that cannot lex.
func printString(b *strings.Builder, s string) {
	if strings.ContainsAny(s, "\"\n") {
		s = strings.NewReplacer("\"", "'", "\n", " ").Replace(s)
	}
	b.WriteString("\"")
	b.WriteString(s)
	b.WriteString("\"")
}
