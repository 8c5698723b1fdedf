package scopeql

import (
	"reflect"
	"strings"
	"testing"
)

func kinds(toks []Token) []TokenKind {
	out := make([]TokenKind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`x = SELECT a, b FROM "s/t" WHERE a >= 1.5;`)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kind TokenKind
		text string
	}{
		{TokIdent, "x"}, {TokSymbol, "="}, {TokKeyword, "SELECT"},
		{TokIdent, "a"}, {TokSymbol, ","}, {TokIdent, "b"},
		{TokKeyword, "FROM"}, {TokString, "s/t"}, {TokKeyword, "WHERE"},
		{TokIdent, "a"}, {TokSymbol, ">="}, {TokNumber, "1.5"},
		{TokSymbol, ";"}, {TokEOF, ""},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(want), toks)
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text {
			t.Errorf("token %d = %v %q, want %v %q", i, toks[i].Kind, toks[i].Text, w.kind, w.text)
		}
	}
}

func TestLexKeywordsCaseInsensitive(t *testing.T) {
	toks, err := Lex("select Select SELECT")
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range toks[:3] {
		if tok.Kind != TokKeyword || tok.Text != "SELECT" {
			t.Fatalf("keyword normalization failed: %+v", tok)
		}
	}
	// Every keyword, whatever its length, is found from its lower case.
	for _, kw := range keywords[1:] {
		toks, err := Lex(strings.ToLower(kw))
		if err != nil || toks[0].Kind != TokKeyword || toks[0].Text != kw {
			t.Errorf("Lex(%q) = %v, %v; want keyword %s", strings.ToLower(kw), toks, err, kw)
		}
	}
}

func TestLexComments(t *testing.T) {
	toks, err := Lex("a -- a comment\n// another\nb")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 || toks[0].Text != "a" || toks[1].Text != "b" {
		t.Fatalf("comments not skipped: %v", toks)
	}
}

func TestLexTwoCharOperators(t *testing.T) {
	toks, err := Lex("== != <= >= < > =")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"==", "!=", "<=", ">=", "<", ">", "="}
	for i, w := range want {
		if toks[i].Text != w {
			t.Errorf("op %d = %q, want %q", i, toks[i].Text, w)
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos != (Pos{1, 1}) {
		t.Errorf("a at %v", toks[0].Pos)
	}
	if toks[1].Pos != (Pos{2, 3}) {
		t.Errorf("b at %v", toks[1].Pos)
	}
}

func TestLexErrors(t *testing.T) {
	cases := []string{
		`x = "unterminated`,
		"x = \"newline\nin string\"",
		"x = @",
	}
	for _, src := range cases {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) succeeded, want error", src)
		}
	}
}

func TestLexNumberForms(t *testing.T) {
	toks, err := Lex("1 2.5 100.25 7")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1", "2.5", "100.25", "7"}
	for i, w := range want {
		if toks[i].Kind != TokNumber || toks[i].Text != w {
			t.Errorf("number %d = %v %q", i, toks[i].Kind, toks[i].Text)
		}
	}
	_ = kinds
}

// TestLexEdgeCases pins the lexer's behaviour on inputs the generated
// workloads never produce: non-ASCII words and digits, Unicode case folding
// onto keywords, invalid UTF-8, number/dot boundaries, comments at EOF and
// CRLF line ends. Columns count runes, not bytes.
func TestLexEdgeCases(t *testing.T) {
	type tok struct {
		kind TokenKind
		text string
		pos  Pos
	}
	cases := []struct {
		name string
		src  string
		want []tok
		err  string
	}{
		{"cjk identifier", "日本 x", []tok{
			{TokIdent, "日本", Pos{1, 1}}, {TokIdent, "x", Pos{1, 4}}, {TokEOF, "", Pos{1, 5}}}, ""},
		{"letter then digit", "é9", []tok{
			{TokIdent, "é9", Pos{1, 1}}, {TokEOF, "", Pos{1, 3}}}, ""},
		{"arabic-indic digit", "٣ 4", []tok{
			{TokNumber, "٣", Pos{1, 1}}, {TokNumber, "4", Pos{1, 3}}, {TokEOF, "", Pos{1, 4}}}, ""},
		{"long s folds to SELECT", "ſelect", []tok{
			{TokKeyword, "SELECT", Pos{1, 1}}, {TokEOF, "", Pos{1, 7}}}, ""},
		{"dotless i folds to JOIN", "joın x", []tok{
			{TokKeyword, "JOIN", Pos{1, 1}}, {TokIdent, "x", Pos{1, 6}}, {TokEOF, "", Pos{1, 7}}}, ""},
		{"non-ASCII word that is no keyword", "sélect", []tok{
			{TokIdent, "sélect", Pos{1, 1}}, {TokEOF, "", Pos{1, 7}}}, ""},
		{"ASCII word longer than any keyword", "selectfrom", []tok{
			{TokIdent, "selectfrom", Pos{1, 1}}, {TokEOF, "", Pos{1, 11}}}, ""},
		{"invalid UTF-8 in a string", "\"a\xffb\xfe\xfd\" x", []tok{
			{TokString, "a�b��", Pos{1, 1}}, {TokIdent, "x", Pos{1, 9}}, {TokEOF, "", Pos{1, 10}}}, ""},
		{"multi-byte string", "\"日本\" x", []tok{
			{TokString, "日本", Pos{1, 1}}, {TokIdent, "x", Pos{1, 6}}, {TokEOF, "", Pos{1, 7}}}, ""},
		{"stray character after a multi-byte string", "\"é\" @", nil,
			`scopeql: 1:5: unexpected character "@"`},
		{"stray multi-byte character", "\"日本\" €", nil,
			`scopeql: 1:6: unexpected character "€"`},
		{"stray invalid byte", "a \xff", nil,
			`scopeql: 1:3: unexpected character "�"`},
		{"two dots", "1.2.3", []tok{
			{TokNumber, "1.2", Pos{1, 1}}, {TokSymbol, ".", Pos{1, 4}}, {TokNumber, "3", Pos{1, 5}}, {TokEOF, "", Pos{1, 6}}}, ""},
		{"qualifier then digit", "a.1", []tok{
			{TokIdent, "a", Pos{1, 1}}, {TokSymbol, ".", Pos{1, 2}}, {TokNumber, "1", Pos{1, 3}}, {TokEOF, "", Pos{1, 4}}}, ""},
		{"trailing dot", "1.", []tok{
			{TokNumber, "1", Pos{1, 1}}, {TokSymbol, ".", Pos{1, 2}}, {TokEOF, "", Pos{1, 3}}}, ""},
		{"comment runs to EOF", "a -- é no newline", []tok{
			{TokIdent, "a", Pos{1, 1}}, {TokEOF, "", Pos{1, 18}}}, ""},
		{"slash comment runs to EOF", "a //日本", []tok{
			{TokIdent, "a", Pos{1, 1}}, {TokEOF, "", Pos{1, 7}}}, ""},
		{"CRLF line ends", "a\r\n b\r\n", []tok{
			{TokIdent, "a", Pos{1, 1}}, {TokIdent, "b", Pos{2, 2}}, {TokEOF, "", Pos{3, 1}}}, ""},
		{"unterminated string at CRLF", "x = \"ab\r\n\"", nil,
			`scopeql: 1:5: unterminated string literal`},
		{"bang alone", "a ! b", nil,
			`scopeql: 1:3: unexpected character "!"`},
		{"ASCII word running into é", "selecté x", []tok{
			{TokIdent, "selecté", Pos{1, 1}}, {TokIdent, "x", Pos{1, 9}}, {TokEOF, "", Pos{1, 10}}}, ""},
		{"ASCII word running into an Arabic-Indic digit", "x٣ y", []tok{
			{TokIdent, "x٣", Pos{1, 1}}, {TokIdent, "y", Pos{1, 4}}, {TokEOF, "", Pos{1, 5}}}, ""},
		{"ASCII word ending at a non-letter", "from€", nil,
			`scopeql: 1:5: unexpected character "€"`},
		{"number running into an Arabic-Indic digit", "2٣ 1.٣", []tok{
			{TokNumber, "2٣", Pos{1, 1}}, {TokNumber, "1.٣", Pos{1, 4}}, {TokEOF, "", Pos{1, 7}}}, ""},
		{"number then letter", "12a", []tok{
			{TokNumber, "12", Pos{1, 1}}, {TokIdent, "a", Pos{1, 3}}, {TokEOF, "", Pos{1, 4}}}, ""},
		{"underscore-led words", "_a __", []tok{
			{TokIdent, "_a", Pos{1, 1}}, {TokIdent, "__", Pos{1, 4}}, {TokEOF, "", Pos{1, 6}}}, ""},
		{"keyword one letter too long", "Extracts", []tok{
			{TokIdent, "Extracts", Pos{1, 1}}, {TokEOF, "", Pos{1, 9}}}, ""},
		{"tab", "a\tb", []tok{
			{TokIdent, "a", Pos{1, 1}}, {TokIdent, "b", Pos{1, 3}}, {TokEOF, "", Pos{1, 4}}}, ""},
	}
	for _, c := range cases {
		toks, err := Lex(c.src)
		if c.err != "" {
			if err == nil || err.Error() != c.err {
				t.Errorf("%s: Lex(%q) error = %v, want %s", c.name, c.src, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: Lex(%q): %v", c.name, c.src, err)
			continue
		}
		got := make([]tok, len(toks))
		for i, tk := range toks {
			got[i] = tok{tk.Kind, tk.Text, tk.Pos}
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: Lex(%q) =\n%v\nwant\n%v", c.name, c.src, got, c.want)
		}
	}
}
