package lang

import "fmt"

// Lexer turns source text into tokens. Comments run from // to end of line.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (lx *Lexer) peekByte() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) skipSpaceAndComments() {
	for lx.off < len(lx.src) {
		c := lx.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.off+1 < len(lx.src) && lx.src[lx.off+1] == '/':
			for lx.off < len(lx.src) && lx.peekByte() != '\n' {
				lx.advance()
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token. At end of input it returns TokEOF forever.
func (lx *Lexer) Next() (Token, error) {
	lx.skipSpaceAndComments()
	pos := Pos{Line: lx.line, Col: lx.col}
	if lx.off >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: pos}, nil
	}
	c := lx.peekByte()
	switch {
	case isIdentStart(c):
		start := lx.off
		for lx.off < len(lx.src) && isIdentPart(lx.peekByte()) {
			lx.advance()
		}
		text := lx.src[start:lx.off]
		if kw, ok := keywords[text]; ok {
			return Token{Kind: kw, Text: text, Pos: pos}, nil
		}
		return Token{Kind: TokIdent, Text: text, Pos: pos}, nil
	case isDigit(c):
		start := lx.off
		for lx.off < len(lx.src) && isDigit(lx.peekByte()) {
			lx.advance()
		}
		return Token{Kind: TokNumber, Text: lx.src[start:lx.off], Pos: pos}, nil
	}
	start := lx.off
	lx.advance()
	// Operator text is a slice of the source, so lexing allocates nothing.
	two := func(next byte, withKind, aloneKind TokKind) (Token, error) {
		if lx.peekByte() == next {
			lx.advance()
			return Token{Kind: withKind, Text: lx.src[start:lx.off], Pos: pos}, nil
		}
		return Token{Kind: aloneKind, Text: lx.src[start:lx.off], Pos: pos}, nil
	}
	switch c {
	case '=':
		return two('=', TokEq, TokAssign)
	case '!':
		return two('=', TokNeq, TokNot)
	case '<':
		return two('=', TokLe, TokLt)
	case '>':
		return two('=', TokGe, TokGt)
	case '&':
		return two('&', TokAndAnd, TokAmp)
	case '|':
		if lx.peekByte() == '|' {
			lx.advance()
			return Token{Kind: TokOrOr, Text: "||", Pos: pos}, nil
		}
		return Token{}, fmt.Errorf("%s: unexpected character %q", pos, "|")
	case '*':
		return Token{Kind: TokStar, Text: "*", Pos: pos}, nil
	case '+':
		return Token{Kind: TokPlus, Text: "+", Pos: pos}, nil
	case '-':
		return Token{Kind: TokMinus, Text: "-", Pos: pos}, nil
	case '(':
		return Token{Kind: TokLParen, Text: "(", Pos: pos}, nil
	case ')':
		return Token{Kind: TokRParen, Text: ")", Pos: pos}, nil
	case '{':
		return Token{Kind: TokLBrace, Text: "{", Pos: pos}, nil
	case '}':
		return Token{Kind: TokRBrace, Text: "}", Pos: pos}, nil
	case ',':
		return Token{Kind: TokComma, Text: ",", Pos: pos}, nil
	case ';':
		return Token{Kind: TokSemi, Text: ";", Pos: pos}, nil
	case '.':
		return Token{Kind: TokDot, Text: ".", Pos: pos}, nil
	}
	return Token{}, fmt.Errorf("%s: unexpected character %q", pos, string(c))
}
