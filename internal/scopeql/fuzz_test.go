package scopeql

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"unicode"

	"steerq/internal/catalog"
	"steerq/internal/plan"
)

// fuzzSeeds covers every statement form the grammar accepts plus a few
// known-bad inputs so the fuzzer starts with interesting coverage.
var fuzzSeeds = []string{
	`x = SELECT a, b FROM "lake/t" WHERE a > 5 AND b == 2 OR a < 1; OUTPUT x TO "o";`,
	`e = EXTRACT a, c FROM "lake/u"; OUTPUT e TO "o";`,
	`j = SELECT f.a AS a, u.c AS c FROM f INNER JOIN e AS u ON f.a == u.a; OUTPUT j TO "o";`,
	`g = SELECT a, COUNT(*) AS cnt, SUM(c) AS total FROM j GROUP BY a HAVING cnt > 3; OUTPUT g TO "o";`,
	`tp = SELECT TOP 10 a, cnt FROM g ORDER BY cnt DESC, a; OUTPUT tp TO "o";`,
	`x = SELECT a + b * 2 AS v FROM "lake/t"; OUTPUT x TO "o";`,
	`x = SELECT * FROM "lake/t"; OUTPUT x TO "o";`,
	`x = SELECT a FROM (SELECT a FROM "lake/t") AS s; OUTPUT x TO "o";`,
	`u = a UNION ALL b; OUTPUT u TO "o";`,
	`r = REDUCE y ON k USING Cook; OUTPUT r TO "o";`,
	`p = PROCESS y USING Cook; OUTPUT p TO "o";`,
	// Printer round-trip corners: empty stream path (found by fuzzing),
	// nested unions, and minimal-parenthesization pressure.
	`x = SELECT a FROM ""; OUTPUT x TO "o";`,
	`u = (a UNION ALL b) UNION ALL c; OUTPUT u TO "o";`,
	`x = SELECT a FROM "t" WHERE (a OR b) AND (c == d) == e; OUTPUT x TO "o";`,
	`x = SELECT a - (b - c) AS d, (a + b) * 2 AS e FROM "t"; OUTPUT x TO "o";`,
	// Malformed inputs that must produce errors, not panics.
	`x = SELECT a FROM "t"`,
	`x = SELECT TOP 0 a FROM "t"; OUTPUT x TO "o";`,
	`OUTPUT x "o";`,
	`= ; ;; "`,
	"x = SELECT \x00 FROM \"t\";",
}

// FuzzParse asserts the parser never panics — any input either yields a
// script or an error — and that every parsed script survives the printer
// round trip: Print output reparses, and printing the reparse reproduces it
// byte for byte (Print∘Parse is a fixed point on canonical source).
func FuzzParse(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse(src)
		if err != nil {
			if s != nil {
				t.Fatalf("Parse returned both a script and error %v", err)
			}
			return
		}
		if s == nil {
			t.Fatal("Parse returned nil script and nil error")
		}
		for i, st := range s.Stmts {
			if st == nil {
				t.Fatalf("statement %d is nil", i)
			}
		}
		p1 := Print(s)
		s2, err := Parse(p1)
		if err != nil {
			t.Fatalf("printed script does not reparse: %v\ninput:\n%s\nprinted:\n%s", err, src, p1)
		}
		if p2 := Print(s2); p2 != p1 {
			t.Fatalf("print is not a fixed point:\nfirst:\n%s\nsecond:\n%s", p1, p2)
		}
	})
}

// FuzzCompile drives the full parse+bind pipeline against a fixed catalog.
// Binding is where name resolution and schema bookkeeping live, so this
// exercises far more invariants than parsing alone. Compile runs on a
// recycled scratch and must agree with Bind(Parse(src)), which runs on fresh
// ones (compileDiff), and planSize must count what the binder carves
// (planPilesDiff); each iteration also compiles the previous input again, on
// a scratch the current one has just been through.
func FuzzCompile(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(strings.ReplaceAll(seed, "lake/t", "lake/orders"))
	}
	for _, seed := range compileCorpus {
		f.Add(seed)
	}
	cat := bindCatalog()
	prev := frontEndScript
	f.Fuzz(func(t *testing.T, src string) {
		root, err := Compile(src, cat)
		if err == nil && root == nil {
			t.Fatal("Compile returned nil plan and nil error")
		}
		if d := compileDiff(src, root, err, cat); d != "" {
			t.Fatalf("%s\ninput:\n%s", d, src)
		}
		if sc, z, err := bindCounted(src, cat); err == nil {
			if d := planPilesDiff(sc, z); d != "" {
				t.Fatalf("%s\ninput:\n%s", d, src)
			}
		}
		root, err = Compile(prev, cat)
		if d := compileDiff(prev, root, err, cat); d != "" {
			t.Fatalf("recompiling the previous input: %s\nprevious:\n%s\ninput:\n%s", d, prev, src)
		}
		prev = src
	})
}

// compileDiff describes how Compile's result for src differs from
// Bind(Parse(src)), the fresh path: the error texts must match, or both plans
// must have the same template and instance hashes and the same column IDs in
// walk order. It returns "" when they agree.
func compileDiff(src string, root *plan.Node, err error, cat *catalog.Catalog) string {
	var want *plan.Node
	s, werr := Parse(src)
	if werr == nil {
		want, werr = Bind(s, cat)
	}
	switch {
	case (err == nil) != (werr == nil):
		return fmt.Sprintf("Compile error %v, fresh path error %v", err, werr)
	case err != nil:
		if err.Error() != werr.Error() {
			return fmt.Sprintf("Compile error %q, fresh path error %q", err, werr)
		}
		return ""
	}
	if a, b := plan.TemplateHash(root), plan.TemplateHash(want); a != b {
		return fmt.Sprintf("template hash %x, fresh path %x", a, b)
	}
	if a, b := plan.InstanceHash(root), plan.InstanceHash(want); a != b {
		return fmt.Sprintf("instance hash %x, fresh path %x", a, b)
	}
	if a, b := columnIDs(root), columnIDs(want); !slices.Equal(a, b) {
		return fmt.Sprintf("column IDs %v, fresh path %v", a, b)
	}
	return ""
}

// columnIDs lists the IDs of every node's schema, in walk order.
func columnIDs(root *plan.Node) []plan.ColumnID {
	var ids []plan.ColumnID
	root.Walk(func(n *plan.Node) {
		for _, c := range n.Schema {
			ids = append(ids, c.ID)
		}
	})
	return ids
}

// FuzzLex checks the lexer's tokens against the source they came from. Each
// identifier, number and string token's Text is what the source holds at its
// Pos (a string literal decoded to valid UTF-8, one U+FFFD per invalid
// byte), a keyword's Text is the source word upper-cased and no identifier
// is a keyword, positions strictly increase, and EOF comes last.
func FuzzLex(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	for _, seed := range []string{"ſelect joın 日本 é9 ٣", "\"a\xffb\" 1.2.3 a.1 1.", "a\r\n-- c", "x // 日本"} {
		f.Add(seed)
	}
	// Where the ASCII fast path ends or hands a word or number over to the
	// Unicode path: an ASCII word running into é, ſ or ٣, a '_'-led word, a
	// keyword-like word one letter too long, CRLF and a tab, and a number
	// running into a letter, a dot and an Arabic-Indic digit.
	for _, seed := range []string{"selecté abſ x٣ FROMé", "_a _1 __ a_b", "EXTRACTS extracts Select", "a\r\nb\tc\r\n", "12a 3.5b 7.x 1.٣ 2٣"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := Lex(src)
		if err != nil {
			return
		}
		// offsets maps each rune's line:column, counted as the lexer counts
		// them, to its byte offset; EOF maps to len(src).
		offsets := make(map[Pos]int)
		line, col := 1, 1
		for off, r := range src {
			offsets[Pos{line, col}] = off
			if r == '\n' {
				line, col = line+1, 1
			} else {
				col++
			}
		}
		offsets[Pos{line, col}] = len(src)
		for k, tok := range toks {
			off, ok := offsets[tok.Pos]
			if !ok {
				t.Fatalf("token %d %v %q at %v: no rune starts there", k, tok.Kind, tok.Text, tok.Pos)
			}
			if k > 0 {
				prev := toks[k-1].Pos
				if tok.Pos.Line < prev.Line || tok.Pos.Line == prev.Line && tok.Pos.Col <= prev.Col {
					t.Fatalf("token %d at %v does not follow token %d at %v", k, tok.Pos, k-1, prev)
				}
			}
			if (tok.Kind == TokEOF) != (k == len(toks)-1) {
				t.Fatalf("token %d of %d is %v", k, len(toks), tok.Kind)
			}
			switch tok.Kind {
			case TokIdent:
				if w := wordAt(src[off:]); w != tok.Text {
					t.Fatalf("identifier %q at %v: source word is %q", tok.Text, tok.Pos, w)
				}
				if slices.Contains(keywords[1:], strings.ToUpper(tok.Text)) {
					t.Fatalf("identifier %q at %v is a keyword", tok.Text, tok.Pos)
				}
			case TokNumber:
				if !strings.HasPrefix(src[off:], tok.Text) || tok.Text == "" {
					t.Fatalf("%v %q at %v: source holds %q", tok.Kind, tok.Text, tok.Pos, src[off:])
				}
			case TokKeyword:
				if w := wordAt(src[off:]); strings.ToUpper(w) != tok.Text {
					t.Fatalf("keyword %q at %v: source word is %q", tok.Text, tok.Pos, w)
				}
			case TokString:
				lit := src[off+1:]
				lit = lit[:strings.IndexByte(lit, '"')]
				if src[off] != '"' || string([]rune(lit)) != tok.Text {
					t.Fatalf("string %q at %v: source holds %q", tok.Text, tok.Pos, src[off:])
				}
			case TokEOF:
				if off != len(src) {
					t.Fatalf("EOF at %v is byte %d of %d", tok.Pos, off, len(src))
				}
			}
		}
	})
}

// wordAt returns the run of letters, digits and underscores s starts with.
func wordAt(s string) string {
	for i, r := range s {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' {
			return s[:i]
		}
	}
	return s
}
