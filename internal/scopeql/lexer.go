package scopeql

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// symbols holds every one-character symbol; a symbol token's Text is a
// one-byte slice of it, so symbols share their text with no allocation.
const symbols = "=<>+-*/(),;."

// maxKeywordLen is the byte length of the longest keyword (EXTRACT,
// PROCESS): an ASCII word longer than this is never looked up.
const maxKeywordLen = 7

// Lex splits src into tokens. It returns a front-end error with position on
// malformed input (unterminated string, stray character).
//
// It scans bytes and allocates only the token slice: identifier, number and
// string texts are substrings of src, and keyword and symbol texts are shared
// constants. Columns count runes; each byte of invalid UTF-8 is one rune
// (U+FFFD), as a []rune conversion decodes it.
func Lex(src string) ([]Token, error) {
	toks, err := lexInto(nil, src)
	if err != nil {
		return nil, err
	}
	return toks, nil
}

// lexInto is Lex appending to dst[:0], which it returns (grown, if it was
// short) on error too, so a caller that recycles the buffer keeps it.
func lexInto(dst []Token, src string) ([]Token, error) {
	// The generated workloads' scripts average one token per 4.8 source bytes
	// and none is denser than one per 4.1 (Workloads A and B, scale 0.01), so
	// a quarter of the bytes holds every token without append regrowth.
	toks := dst[:0]
	if want := len(src)/4 + 1; cap(toks) < want {
		toks = make([]Token, 0, want)
	}
	var (
		line = 1
		col  = 1
		i    = 0
	)
	for i < len(src) {
		r, size := runeAt(src[i:])
		pos := Pos{line, col}
		switch {
		case r == '\n':
			i++
			line++
			col = 1
		case r == ' ' || r == '\t' || r == '\r':
			i++
			col++
		case (r == '-' || r == '/') && i+1 < len(src) && src[i+1] == src[i]:
			// line comment, up to (not including) the newline
			end := strings.IndexByte(src[i:], '\n')
			if end < 0 {
				end = len(src) - i
			}
			col += utf8.RuneCountInString(src[i : i+end])
			i += end
		case unicode.IsLetter(r) || r == '_':
			start := i
			ascii := true
			for i < len(src) {
				r, size := runeAt(src[i:])
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' {
					break
				}
				ascii = ascii && size == 1
				i += size
				col++
			}
			word := src[start:i]
			if kw, ok := keyword(word, ascii); ok {
				toks = append(toks, Token{Kind: TokKeyword, Text: kw, Pos: pos})
			} else {
				toks = append(toks, Token{Kind: TokIdent, Text: word, Pos: pos})
			}
		case unicode.IsDigit(r):
			start := i
			seenDot := false
			for i < len(src) {
				r, size := runeAt(src[i:])
				if r == '.' && !seenDot && i+1 < len(src) && isDigitAt(src, i+1) {
					seenDot = true
				} else if !unicode.IsDigit(r) {
					break
				}
				i += size
				col++
			}
			toks = append(toks, Token{Kind: TokNumber, Text: src[start:i], Pos: pos})
		case r == '"':
			i++
			col++
			start := i
			for i < len(src) && src[i] != '"' {
				if src[i] == '\n' {
					return toks, errf(pos, "unterminated string literal")
				}
				_, size := runeAt(src[i:])
				i += size
				col++
			}
			if i >= len(src) {
				return toks, errf(pos, "unterminated string literal")
			}
			text := src[start:i]
			if !utf8.ValidString(text) {
				text = string([]rune(text)) // one U+FFFD per invalid byte
			}
			i++ // closing quote
			col++
			toks = append(toks, Token{Kind: TokString, Text: text, Pos: pos})
		default:
			if i+1 < len(src) && src[i+1] == '=' {
				if two := twoCharSymbol(r); two != "" {
					toks = append(toks, Token{Kind: TokSymbol, Text: two, Pos: pos})
					i += 2
					col += 2
					continue
				}
			}
			k := -1
			if size == 1 {
				k = strings.IndexByte(symbols, src[i])
			}
			if k < 0 {
				return toks, errf(pos, "unexpected character %q", string(r))
			}
			toks = append(toks, Token{Kind: TokSymbol, Text: symbols[k : k+1], Pos: pos})
			i += size
			col++
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Pos: Pos{line, col}})
	return toks, nil
}

// runeAt decodes the first rune of s, which is not empty, and its byte
// width; ASCII takes one byte without a call into the decoder.
func runeAt(s string) (rune, int) {
	if s[0] < utf8.RuneSelf {
		return rune(s[0]), 1
	}
	return utf8.DecodeRuneInString(s)
}

// isDigitAt reports whether the rune starting at src[i] is a digit.
func isDigitAt(src string, i int) bool {
	r, _ := runeAt(src[i:])
	return unicode.IsDigit(r)
}

// twoCharSymbol returns the two-character symbol r starts when '=' follows
// it, or "" if there is none.
func twoCharSymbol(r rune) string {
	switch r {
	case '=':
		return "=="
	case '!':
		return "!="
	case '<':
		return "<="
	case '>':
		return ">="
	}
	return ""
}

// keyword returns the keyword word spells case-insensitively, as the
// keywords table's shared text. An ASCII word is upper-cased into a stack
// buffer; any other goes through strings.ToUpper, whose Unicode folding
// makes "ſelect" SELECT and "joın" JOIN.
func keyword(word string, ascii bool) (string, bool) {
	if !ascii {
		kw, ok := keywords[strings.ToUpper(word)]
		return kw, ok
	}
	if len(word) > maxKeywordLen {
		return "", false
	}
	var buf [maxKeywordLen]byte
	for k := 0; k < len(word); k++ {
		c := word[k]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[k] = c
	}
	kw, ok := keywords[string(buf[:len(word)])]
	return kw, ok
}
