package policy

import (
	"fmt"
	"strconv"
	"strings"
)

// tokKind enumerates lexical token kinds.
type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tNumber // plain integer or decimal
	tRate   // number with a bandwidth unit, e.g. 50MB/s
	tMAC    // 00:11:22:33:44:55
	tIP     // 192.168.1.1
	tAssign // :=
	tColon  // :
	tArrow  // ->
	tEq     // =
	tNeq    // !=
	tLParen
	tRParen
	tLBracket
	tRBracket
	tLBrace
	tRBrace
	tComma
	tSemi
	tPlus
	tStar
	tQuest
	tDot
	tPipe
	tBang
	tEpsilon // ε, the empty path: how the printer writes an optional element
)

func (k tokKind) String() string {
	switch k {
	case tEOF:
		return "end of input"
	case tIdent:
		return "identifier"
	case tNumber:
		return "number"
	case tRate:
		return "rate"
	case tMAC:
		return "MAC address"
	case tIP:
		return "IP address"
	case tAssign:
		return "':='"
	case tColon:
		return "':'"
	case tArrow:
		return "'->'"
	case tEq:
		return "'='"
	case tNeq:
		return "'!='"
	case tLParen:
		return "'('"
	case tRParen:
		return "')'"
	case tLBracket:
		return "'['"
	case tRBracket:
		return "']'"
	case tLBrace:
		return "'{'"
	case tRBrace:
		return "'}'"
	case tComma:
		return "','"
	case tSemi:
		return "';'"
	case tPlus:
		return "'+'"
	case tStar:
		return "'*'"
	case tQuest:
		return "'?'"
	case tDot:
		return "'.'"
	case tPipe:
		return "'|'"
	case tBang:
		return "'!'"
	case tEpsilon:
		return "'ε'"
	default:
		return "token"
	}
}

type token struct {
	kind tokKind
	text string
	rate float64 // decoded bits/s for tRate
	line int
	col  int
}

func (t token) String() string {
	if t.text != "" {
		return fmt.Sprintf("%s %q", t.kind, t.text)
	}
	return t.kind.String()
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func isHex(b byte) bool {
	return ('0' <= b && b <= '9') || ('a' <= b && b <= 'f') || ('A' <= b && b <= 'F')
}

func isDigit(b byte) bool { return '0' <= b && b <= '9' }

func isLetter(b byte) bool {
	return b == '_' || ('a' <= b && b <= 'z') || ('A' <= b && b <= 'Z')
}

func isIdentByte(b byte) bool { return isLetter(b) || isDigit(b) }

// rateUnits maps unit suffixes to bits-per-second multipliers. Bandwidth
// rates in Merlin policies are written like 50MB/s or 1Gbps (§2).
var rateUnits = map[string]float64{
	"GB/s": 8e9, "MB/s": 8e6, "KB/s": 8e3, "kB/s": 8e3, "B/s": 8,
	"Gbps": 1e9, "Mbps": 1e6, "Kbps": 1e3, "kbps": 1e3, "bps": 1,
}

func (l *lexer) errf(format string, args ...any) error {
	return fmt.Errorf("policy:%d:%d: %s", l.line, l.col, fmt.Sprintf(format, args...))
}

// lexAll tokenizes the whole input.
func lexAll(src string) ([]token, error) {
	l := &lexer{src: src, line: 1, col: 1}
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tEOF {
			return toks, nil
		}
	}
}

func (l *lexer) advance(n int) {
	for i := 0; i < n; i++ {
		if l.src[l.pos] == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
		l.pos++
	}
}

func (l *lexer) next() (token, error) {
	// Skip whitespace and # comments.
	for l.pos < len(l.src) {
		b := l.src[l.pos]
		if b == ' ' || b == '\t' || b == '\r' || b == '\n' {
			l.advance(1)
			continue
		}
		if b == '#' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance(1)
			}
			continue
		}
		break
	}
	if l.pos >= len(l.src) {
		return token{kind: tEOF, line: l.line, col: l.col}, nil
	}
	line, col := l.line, l.col
	mk := func(k tokKind, text string) token {
		return token{kind: k, text: text, line: line, col: col}
	}
	b := l.src[l.pos]

	// MAC address: six colon-separated hex pairs (try before ident/number
	// since hex digits overlap both).
	if isHex(b) {
		if mac, ok := l.tryMAC(); ok {
			return mk(tMAC, mac), nil
		}
	}
	switch {
	case isDigit(b):
		return l.lexNumber(line, col)
	case isLetter(b):
		j := l.pos
		for j < len(l.src) && isIdentByte(l.src[j]) {
			j++
		}
		text := l.src[l.pos:j]
		l.advance(j - l.pos)
		return mk(tIdent, text), nil
	}
	switch b {
	case ':':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.advance(2)
			return mk(tAssign, ":="), nil
		}
		l.advance(1)
		return mk(tColon, ":"), nil
	case '-':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '>' {
			l.advance(2)
			return mk(tArrow, "->"), nil
		}
		return token{}, l.errf("unexpected '-'")
	case '=':
		l.advance(1)
		return mk(tEq, "="), nil
	case '!':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.advance(2)
			return mk(tNeq, "!="), nil
		}
		l.advance(1)
		return mk(tBang, "!"), nil
	case '(':
		l.advance(1)
		return mk(tLParen, "("), nil
	case ')':
		l.advance(1)
		return mk(tRParen, ")"), nil
	case '[':
		l.advance(1)
		return mk(tLBracket, "["), nil
	case ']':
		l.advance(1)
		return mk(tRBracket, "]"), nil
	case '{':
		l.advance(1)
		return mk(tLBrace, "{"), nil
	case '}':
		l.advance(1)
		return mk(tRBrace, "}"), nil
	case ',':
		l.advance(1)
		return mk(tComma, ","), nil
	case ';':
		l.advance(1)
		return mk(tSemi, ";"), nil
	case '+':
		l.advance(1)
		return mk(tPlus, "+"), nil
	case '*':
		l.advance(1)
		return mk(tStar, "*"), nil
	case '?':
		l.advance(1)
		return mk(tQuest, "?"), nil
	case '.':
		l.advance(1)
		return mk(tDot, "."), nil
	case '|':
		l.advance(1)
		return mk(tPipe, "|"), nil
	}
	if strings.HasPrefix(l.src[l.pos:], "ε") {
		l.advance(len("ε"))
		return mk(tEpsilon, "ε"), nil
	}
	return token{}, l.errf("unexpected character %q", b)
}

// tryMAC attempts to consume a MAC address at the current position.
func (l *lexer) tryMAC() (string, bool) {
	const macLen = 17 // XX:XX:XX:XX:XX:XX
	if l.pos+macLen > len(l.src) {
		return "", false
	}
	s := l.src[l.pos : l.pos+macLen]
	for i := 0; i < macLen; i++ {
		switch {
		case i%3 == 2:
			if s[i] != ':' {
				return "", false
			}
		default:
			if !isHex(s[i]) {
				return "", false
			}
		}
	}
	// Must not continue into a longer token.
	if l.pos+macLen < len(l.src) && (isHex(l.src[l.pos+macLen]) || l.src[l.pos+macLen] == ':') {
		return "", false
	}
	l.advance(macLen)
	return strings.ToLower(s), true
}

// lexNumber handles plain numbers, IPv4 addresses, and rates with units.
func (l *lexer) lexNumber(line, col int) (token, error) {
	j := l.pos
	for j < len(l.src) && isDigit(l.src[j]) {
		j++
	}
	// IPv4: d+.d+.d+.d+ (must check before decimals; Merlin policies do
	// not use fractional literals with trailing dots).
	if j < len(l.src) && l.src[j] == '.' && j+1 < len(l.src) && isDigit(l.src[j+1]) {
		// Attempt a dotted quad.
		k := j
		parts := 1
		for parts < 4 && k < len(l.src) && l.src[k] == '.' && k+1 < len(l.src) && isDigit(l.src[k+1]) {
			k++
			for k < len(l.src) && isDigit(l.src[k]) {
				k++
			}
			parts++
		}
		if parts == 4 {
			text := l.src[l.pos:k]
			l.advance(k - l.pos)
			return token{kind: tIP, text: text, line: line, col: col}, nil
		}
		// Decimal number: d+.d+
		k = j + 1
		for k < len(l.src) && isDigit(l.src[k]) {
			k++
		}
		j = k
	}
	numText := l.src[l.pos:j]
	// Unit suffix?
	k := j
	for k < len(l.src) && isLetter(l.src[k]) {
		k++
	}
	if k > j {
		unit := l.src[j:k]
		if k < len(l.src) && l.src[k] == '/' && k+1 < len(l.src) && l.src[k+1] == 's' {
			unit += "/s"
			k += 2
		}
		mult, ok := rateUnits[unit]
		if !ok {
			return token{}, fmt.Errorf("policy:%d:%d: unknown bandwidth unit %q", line, col, unit)
		}
		val, err := strconv.ParseFloat(numText, 64)
		if err != nil {
			return token{}, fmt.Errorf("policy:%d:%d: bad number %q", line, col, numText)
		}
		text := l.src[l.pos:k]
		l.advance(k - l.pos)
		return token{kind: tRate, text: text, rate: val * mult, line: line, col: col}, nil
	}
	l.advance(j - l.pos)
	return token{kind: tNumber, text: numText, line: line, col: col}, nil
}
