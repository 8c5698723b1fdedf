package scopeql

import (
	"strings"
	"unicode"
)

// Lex splits src into tokens. It returns a front-end error with position on
// malformed input (unterminated string, stray character).
func Lex(src string) ([]Token, error) {
	// The generated workloads' scripts average one token per 4.8 source bytes
	// and none is denser than one per 4.1 (Workloads A and B, scale 0.01), so
	// a quarter of the bytes holds every token without append regrowth.
	var (
		toks = make([]Token, 0, len(src)/4+1)
		line = 1
		col  = 1
	)
	runes := []rune(src)
	i := 0
	advance := func(n int) {
		for k := 0; k < n; k++ {
			if runes[i+k] == '\n' {
				line++
				col = 1
			} else {
				col++
			}
		}
		i += n
	}
	for i < len(runes) {
		r := runes[i]
		switch {
		case r == ' ' || r == '\t' || r == '\r' || r == '\n':
			advance(1)
		case r == '-' && i+1 < len(runes) && runes[i+1] == '-':
			// line comment
			for i < len(runes) && runes[i] != '\n' {
				advance(1)
			}
		case r == '/' && i+1 < len(runes) && runes[i+1] == '/':
			for i < len(runes) && runes[i] != '\n' {
				advance(1)
			}
		case unicode.IsLetter(r) || r == '_':
			start := i
			pos := Pos{line, col}
			for i < len(runes) && (unicode.IsLetter(runes[i]) || unicode.IsDigit(runes[i]) || runes[i] == '_') {
				advance(1)
			}
			word := string(runes[start:i])
			if up := strings.ToUpper(word); keywords[up] {
				toks = append(toks, Token{Kind: TokKeyword, Text: up, Pos: pos})
			} else {
				toks = append(toks, Token{Kind: TokIdent, Text: word, Pos: pos})
			}
		case unicode.IsDigit(r):
			start := i
			pos := Pos{line, col}
			seenDot := false
			for i < len(runes) && (unicode.IsDigit(runes[i]) || (!seenDot && runes[i] == '.' && i+1 < len(runes) && unicode.IsDigit(runes[i+1]))) {
				if runes[i] == '.' {
					seenDot = true
				}
				advance(1)
			}
			toks = append(toks, Token{Kind: TokNumber, Text: string(runes[start:i]), Pos: pos})
		case r == '"':
			pos := Pos{line, col}
			advance(1)
			start := i
			for i < len(runes) && runes[i] != '"' {
				if runes[i] == '\n' {
					return nil, errf(pos, "unterminated string literal")
				}
				advance(1)
			}
			if i >= len(runes) {
				return nil, errf(pos, "unterminated string literal")
			}
			text := string(runes[start:i])
			advance(1) // closing quote
			toks = append(toks, Token{Kind: TokString, Text: text, Pos: pos})
		default:
			pos := Pos{line, col}
			two := ""
			if i+1 < len(runes) {
				two = string(runes[i : i+2])
			}
			switch two {
			case "==", "!=", "<=", ">=":
				toks = append(toks, Token{Kind: TokSymbol, Text: two, Pos: pos})
				advance(2)
				continue
			}
			switch r {
			case '=', '<', '>', '+', '-', '*', '/', '(', ')', ',', ';', '.':
				toks = append(toks, Token{Kind: TokSymbol, Text: string(r), Pos: pos})
				advance(1)
			default:
				return nil, errf(pos, "unexpected character %q", string(r))
			}
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Pos: Pos{line, col}})
	return toks, nil
}
