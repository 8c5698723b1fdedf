package scopeql_test

import (
	"slices"
	"strings"
	"testing"
	"unicode"

	"steerq/internal/plan"
	"steerq/internal/scopeql"
	"steerq/internal/workload"
)

// TestFrontEndOverWorkloadScripts holds the front end to two oracles over
// every script the generators write for Workloads A, B and C, days 0 and 1,
// at scale 0.01 (seed 2021, the experiments' default), which the fuzz
// targets only approach from their seeds:
//
//   - every token against the source, as FuzzLex checks it: the token's
//     position names a rune whose byte offset holds its text (an
//     identifier the whole word there, by package unicode's letters and
//     digits; a keyword that word upper-cased), positions increase, and EOF
//     comes last at the end of the source; no identifier spells, in any
//     case, a keyword some script uses;
//   - Compile, on its recycled scratch, against Bind(Parse(src)) on fresh
//     ones: the same template and instance hashes and the same column IDs
//     in walk order.
func TestFrontEndOverWorkloadScripts(t *testing.T) {
	keywords := make(map[string]bool)
	var idents []string
	scripts := 0
	for _, prof := range []workload.Profile{
		workload.ProfileA(0.01, 2021), workload.ProfileB(0.01, 2021), workload.ProfileC(0.01, 2021),
	} {
		w := workload.Generate(prof)
		for day := 0; day <= 1; day++ {
			for _, j := range w.Day(day) {
				scripts++
				toks, err := scopeql.Lex(j.Script)
				if err != nil {
					t.Fatalf("%s: Lex: %v", j.ID, err)
				}
				for _, tok := range toks {
					switch tok.Kind {
					case scopeql.TokKeyword:
						keywords[tok.Text] = true
					case scopeql.TokIdent:
						idents = append(idents, tok.Text)
					}
				}
				if msg := checkTokens(j.Script, toks); msg != "" {
					t.Fatalf("%s: %s\nscript:\n%s", j.ID, msg, j.Script)
				}
				if msg := checkCompile(j.Script, w); msg != "" {
					t.Fatalf("%s: %s\nscript:\n%s", j.ID, msg, j.Script)
				}
			}
		}
	}
	for _, id := range idents {
		if keywords[strings.ToUpper(id)] {
			t.Fatalf("identifier %q spells the keyword %s", id, strings.ToUpper(id))
		}
	}
	if scripts < 1000 || len(keywords) < 10 {
		t.Fatalf("%d scripts using %d keywords: the oracle saw too little", scripts, len(keywords))
	}
}

// checkTokens describes the first token of toks that does not match src, or
// returns "".
func checkTokens(src string, toks []scopeql.Token) string {
	// offsets maps each rune's line:column, counted as the lexer counts them,
	// to its byte offset; EOF maps to len(src).
	offsets := make(map[scopeql.Pos]int)
	line, col := 1, 1
	for off, r := range src {
		offsets[scopeql.Pos{Line: line, Col: col}] = off
		if r == '\n' {
			line, col = line+1, 1
		} else {
			col++
		}
	}
	offsets[scopeql.Pos{Line: line, Col: col}] = len(src)
	for k, tok := range toks {
		off, ok := offsets[tok.Pos]
		if !ok {
			return "token " + tok.Text + " at " + tok.Pos.String() + ": no rune starts there"
		}
		if k > 0 {
			prev := toks[k-1].Pos
			if tok.Pos.Line < prev.Line || tok.Pos.Line == prev.Line && tok.Pos.Col <= prev.Col {
				return "token at " + tok.Pos.String() + " does not follow the one at " + prev.String()
			}
		}
		if (tok.Kind == scopeql.TokEOF) != (k == len(toks)-1) {
			return "EOF is not exactly the last token"
		}
		switch tok.Kind {
		case scopeql.TokIdent:
			if w := sourceWord(src[off:]); w != tok.Text {
				return "identifier " + tok.Text + " at " + tok.Pos.String() + ": source word is " + w
			}
		case scopeql.TokKeyword:
			if w := sourceWord(src[off:]); strings.ToUpper(w) != tok.Text {
				return "keyword " + tok.Text + " at " + tok.Pos.String() + ": source word is " + w
			}
		case scopeql.TokNumber, scopeql.TokSymbol:
			if tok.Text == "" || !strings.HasPrefix(src[off:], tok.Text) {
				return tok.Kind.String() + " " + tok.Text + " at " + tok.Pos.String() + " is not in the source there"
			}
		case scopeql.TokString:
			lit := src[off+1:]
			if src[off] != '"' || lit[:strings.IndexByte(lit, '"')] != tok.Text {
				return "string " + tok.Text + " at " + tok.Pos.String() + " is not in the source there"
			}
		case scopeql.TokEOF:
			if off != len(src) {
				return "EOF at " + tok.Pos.String() + " is not at the end of the source"
			}
		}
	}
	return ""
}

// sourceWord returns the run of letters, digits and underscores s starts
// with.
func sourceWord(s string) string {
	for i, r := range s {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' {
			return s[:i]
		}
	}
	return s
}

// checkCompile describes how Compile's plan for src differs from
// Bind(Parse(src))'s, or returns "".
func checkCompile(src string, w *workload.Workload) string {
	got, err := scopeql.Compile(src, w.Cat)
	if err != nil {
		return "Compile: " + err.Error()
	}
	s, err := scopeql.Parse(src)
	if err != nil {
		return "Parse: " + err.Error()
	}
	want, err := scopeql.Bind(s, w.Cat)
	if err != nil {
		return "Bind: " + err.Error()
	}
	switch {
	case plan.TemplateHash(got) != plan.TemplateHash(want):
		return "Compile's template hash differs from Bind(Parse)'s"
	case plan.InstanceHash(got) != plan.InstanceHash(want):
		return "Compile's instance hash differs from Bind(Parse)'s"
	case !slices.Equal(walkColumnIDs(got), walkColumnIDs(want)):
		return "Compile's column IDs differ from Bind(Parse)'s"
	}
	return ""
}

// walkColumnIDs lists the IDs of every node's schema, in walk order.
func walkColumnIDs(root *plan.Node) []plan.ColumnID {
	var ids []plan.ColumnID
	root.Walk(func(n *plan.Node) {
		for _, c := range n.Schema {
			ids = append(ids, c.ID)
		}
	})
	return ids
}
