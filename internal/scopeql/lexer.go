package scopeql

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Byte classes of the lexer's ASCII fast path (byteClass). A byte ≥ 0x80 has
// none: it goes to the Unicode path.
const (
	bSpace   = 1 << iota // ' ', '\t', '\r': one column of blank
	bNewline             // '\n'
	bLetter              // 'A'-'Z', 'a'-'z', '_': starts or continues a word
	bDigit               // '0'-'9': starts a number, continues a word or number
)

// byteClass classes every byte. For a byte below 0x80, bLetter and bDigit
// agree with unicode.IsLetter (or '_') and unicode.IsDigit, which is what
// makes the fast path exact.
var byteClass = func() (t [256]uint8) {
	t[' '], t['\t'], t['\r'] = bSpace, bSpace, bSpace
	t['\n'] = bNewline
	t['_'] = bLetter
	for c := 'a'; c <= 'z'; c++ {
		t[c] = bLetter
		t[c-'a'+'A'] = bLetter
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = bDigit
	}
	return t
}()

// symbolOf maps a symbol's first byte to the symbol; symbolEq maps it to the
// two-character symbol it starts when '=' follows. Both are derived from the
// symbols table.
var symbolOf, symbolEq = func() (one, eq [utf8.RuneSelf]symbol) {
	for s := symbol(1); int(s) < len(symbols); s++ {
		switch text := symbols[s]; len(text) {
		case 1:
			one[text[0]] = s
		default:
			eq[text[0]] = s
		}
	}
	return one, eq
}()

// keywordSlots is the keyword lookup, derived from the keywords table: a
// keyword sits at keywordSlot of its text, and no two keywords share a slot
// (init checks). maxKeywordLen is the longest keyword's byte length.
var (
	keywordSlots  [64]keyword
	maxKeywordLen int
)

func init() {
	for k := keyword(1); int(k) < len(keywords); k++ {
		kw := keywords[k]
		s := keywordSlot(kw)
		if keywordSlots[s] != 0 {
			// steerq:allow-panic — the keyword table is a constant; a collision is a build-time bug.
			panic("scopeql: keywords " + keywords[keywordSlots[s]] + " and " + kw + " share a lookup slot")
		}
		keywordSlots[s] = k
		maxKeywordLen = max(maxKeywordLen, len(kw))
	}
}

// keywordSlot hashes a word by its length and its upper-cased first and last
// bytes.
func keywordSlot(w string) int {
	return ((int(upperASCII(w[0]))+len(w))<<3 + int(upperASCII(w[len(w)-1]))) & (len(keywordSlots) - 1)
}

func upperASCII(c byte) byte {
	if 'a' <= c && c <= 'z' {
		c -= 'a' - 'A'
	}
	return c
}

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
//
// Blanks, and words and numbers that are ASCII all the way through, take the
// fast path by byte class. A word or number that runs into a byte ≥ 0x80 is
// handed over, from its start, to the Unicode path, which decodes runes and
// asks package unicode; so does every token that starts with such a byte.
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
		pos := Pos{line, col}
		switch c := byteClass[src[i]]; {
		case c&bSpace != 0:
			i++
			col++
			continue
		case c&bNewline != 0:
			i++
			line++
			col = 1
			continue
		case c&bLetter != 0:
			if end := asciiWord(src, i); end > 0 {
				toks = append(toks, wordToken(src[i:end], src[i:end], pos))
				col += end - i
				i = end
				continue
			}
		case c&bDigit != 0:
			if end := asciiNumber(src, i); end > 0 {
				toks = append(toks, Token{Kind: TokNumber, Text: src[i:end], Pos: pos})
				col += end - i
				i = end
				continue
			}
		}
		r, _ := runeAt(src[i:])
		switch {
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
			word, key := src[start:i], src[start:i]
			if !ascii {
				key = strings.ToUpper(word)
			}
			toks = append(toks, wordToken(word, key, pos))
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
			var s symbol
			if c := src[i]; c < utf8.RuneSelf {
				if i+1 < len(src) && src[i+1] == '=' {
					s = symbolEq[c]
				}
				if s == 0 {
					s = symbolOf[c]
				}
			}
			if s == 0 {
				return toks, errf(pos, "unexpected character %q", string(r))
			}
			toks = append(toks, Token{Kind: TokSymbol, code: uint8(s), Text: symbols[s], Pos: pos})
			i += len(symbols[s])
			col += len(symbols[s])
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Pos: Pos{line, col}})
	return toks, nil
}

// asciiWord returns the end of the word starting at src[i], an ASCII letter
// or '_', or -1 when the word runs into a byte ≥ 0x80 (which may continue
// it: é, ſ, ٣), so that only the Unicode path can tell where it ends.
func asciiWord(src string, i int) int {
	for i++; i < len(src); i++ {
		if c := src[i]; byteClass[c]&(bLetter|bDigit) == 0 {
			if c >= utf8.RuneSelf {
				return -1
			}
			break
		}
	}
	return i
}

// asciiNumber returns the end of the number starting at src[i], an ASCII
// digit: digits with at most one '.' that a digit follows. It returns -1
// when the number runs into a byte ≥ 0x80, directly or after its first '.',
// since that may be a digit (٣) only the Unicode path knows.
func asciiNumber(src string, i int) int {
	seenDot := false
	for i++; i < len(src); i++ {
		c := src[i]
		if byteClass[c]&bDigit != 0 {
			continue
		}
		if c == '.' && !seenDot && i+1 < len(src) {
			if next := src[i+1]; byteClass[next]&bDigit != 0 {
				seenDot = true
				continue
			} else if next >= utf8.RuneSelf {
				return -1
			}
		}
		if c >= utf8.RuneSelf {
			return -1
		}
		break
	}
	return i
}

// wordToken is the token of word: the keyword key spells, or an identifier.
// key is word itself, or strings.ToUpper(word) for a word that is not ASCII.
func wordToken(word, key string, pos Pos) Token {
	if kw, ok := lookupKeyword(key); ok {
		return Token{Kind: TokKeyword, code: uint8(kw), Text: keywords[kw], Pos: pos}
	}
	return Token{Kind: TokIdent, Text: word, Pos: pos}
}

// lookupKeyword returns the keyword w spells, ASCII letters compared
// case-insensitively. The Unicode path passes strings.ToUpper of its word,
// whose Unicode folding makes "ſelect" SELECT and "joın" JOIN.
func lookupKeyword(w string) (keyword, bool) {
	if len(w) == 0 || len(w) > maxKeywordLen {
		return 0, false
	}
	k := keywordSlots[keywordSlot(w)]
	kw := keywords[k]
	if len(kw) != len(w) {
		return 0, false
	}
	for j := 0; j < len(w); j++ {
		if upperASCII(w[j]) != kw[j] {
			return 0, false
		}
	}
	return k, true
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
