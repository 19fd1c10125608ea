package dag

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// Scanner is a single-pass cursor over one JSON text. It is the reader
// behind Decode, and the serving layer walks request envelopes with it so a
// body is read exactly once: Member and Element step through containers,
// Skip passes over a value while checking its syntax, and DAG decodes the
// wire form in place. Every byte the cursor passes is validated against the
// JSON grammar — skipped members included — with the same limits as
// encoding/json (nesting depth, control characters in strings, number
// syntax), so a document the Scanner accepts is one encoding/json accepts.
type Scanner struct {
	data  []byte
	pos   int
	depth int
}

// maxDepth is encoding/json's nesting limit: a document may open this many
// containers inside one another, not one more.
const maxDepth = 10000

// NewScanner returns a cursor at the start of data. The Scanner reads data
// in place and keeps no reference to it in anything it returns except the
// key slices of Member.
func NewScanner(data []byte) Scanner { return Scanner{data: data} }

// SyntaxError reports text that is not JSON: a byte the grammar does not
// allow at Offset, input that ends early, or nesting beyond the limit.
type SyntaxError struct {
	Offset int
	msg    string
}

func (e *SyntaxError) Error() string { return fmt.Sprintf("%s at offset %d", e.msg, e.Offset) }

func (s *Scanner) syntax(context string) error {
	if s.pos >= len(s.data) {
		return &SyntaxError{Offset: s.pos, msg: "unexpected end of JSON input"}
	}
	return &SyntaxError{Offset: s.pos, msg: fmt.Sprintf("invalid character %q %s", s.data[s.pos], context)}
}

// Offset returns the cursor's byte position in the data.
func (s *Scanner) Offset() int { return s.pos }

// Peek skips whitespace and returns the next byte without consuming it, or
// 0 at the end of the data (no JSON token starts with a zero byte).
func (s *Scanner) Peek() byte {
	for s.pos < len(s.data) {
		c := s.data[s.pos]
		if c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return c
		}
		s.pos++
	}
	return 0
}

// End reports whether only whitespace remains.
func (s *Scanner) End() error {
	if s.Peek(); s.pos < len(s.data) {
		return s.syntax("after top-level value")
	}
	return nil
}

// open consumes a container's opening byte.
func (s *Scanner) open() error {
	if s.depth++; s.depth > maxDepth {
		return &SyntaxError{Offset: s.pos, msg: "exceeded max depth"}
	}
	s.pos++
	return nil
}

// Member steps to the next member of an object and returns its name,
// unquoted, leaving the cursor at the member's value. With first set the
// cursor must be at the opening brace, which is consumed; afterwards it must
// be just past the previous member's value. ok is false once the closing
// brace has been consumed. The key is valid until the next call.
func (s *Scanner) Member(first bool) (key []byte, ok bool, err error) {
	if first {
		if err := s.open(); err != nil {
			return nil, false, err
		}
	}
	c := s.Peek()
	switch {
	case c == '}':
		s.pos++
		s.depth--
		return nil, false, nil
	case first:
	case c == ',':
		s.pos++
		c = s.Peek()
	default:
		return nil, false, s.syntax("after object key:value pair")
	}
	if c != '"' {
		return nil, false, s.syntax("looking for beginning of object key string")
	}
	if key, err = s.str(); err != nil {
		return nil, false, err
	}
	if s.Peek() != ':' {
		return nil, false, s.syntax("after object key")
	}
	s.pos++
	return key, true, nil
}

// Element steps to the next element of an array, leaving the cursor at its
// value; first and ok are as for Member.
func (s *Scanner) Element(first bool) (ok bool, err error) {
	if first {
		if err := s.open(); err != nil {
			return false, err
		}
	}
	switch c := s.Peek(); {
	case c == ']':
		s.pos++
		s.depth--
		return false, nil
	case first:
	case c == ',':
		s.pos++
	default:
		return false, s.syntax("after array element")
	}
	return true, nil
}

// Skip passes over the value at the cursor, checking its syntax.
func (s *Scanner) Skip() error {
	switch c := s.Peek(); {
	case c == '{':
		for first := true; ; first = false {
			_, ok, err := s.Member(first)
			if err != nil || !ok {
				return err
			}
			if err := s.Skip(); err != nil {
				return err
			}
		}
	case c == '[':
		for first := true; ; first = false {
			ok, err := s.Element(first)
			if err != nil || !ok {
				return err
			}
			if err := s.Skip(); err != nil {
				return err
			}
		}
	case c == '"':
		return s.skipString()
	case c == '-' || '0' <= c && c <= '9':
		return s.skipNumber()
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	}
	return s.syntax("looking for beginning of value")
}

// literal consumes one of true, false and null.
func (s *Scanner) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if s.pos >= len(s.data) || s.data[s.pos] != word[i] {
			return s.syntax("in literal " + word)
		}
		s.pos++
	}
	return nil
}

// null consumes a null when one is next, which every field of the wire form
// accepts and ignores, as encoding/json does.
func (s *Scanner) null() (bool, error) {
	if s.Peek() != 'n' {
		return false, nil
	}
	return true, s.literal("null")
}

// num is a scanned number token: what its digits say, gathered while their
// syntax is checked, so integer and float fields need no second pass.
type num struct {
	neg     bool
	integer bool   // written without fraction or exponent
	digits  int    // digits in the integer and fraction parts, leading zeros too
	mant    uint64 // those digits as one integer — filled in only while digits <= 19
	exp     int    // power of ten to apply to mant: the written exponent less the fraction's length
}

// number consumes a number token. The digits are gathered in locals by two
// written-out loops: a closure shared by both, or the fields of n, would keep
// them in memory, and this is the innermost loop of every decode.
func (s *Scanner) number() (n num, err error) {
	d, i := s.data, s.pos
	if i < len(d) && d[i] == '-' {
		n.neg = true
		i++
	}
	var digits int
	var mant uint64
	switch {
	case i < len(d) && d[i] == '0':
		digits = 1
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		for ; i < len(d) && '0' <= d[i] && d[i] <= '9'; i++ {
			if digits++; digits <= 19 {
				mant = mant*10 + uint64(d[i]-'0')
			}
		}
	default:
		s.pos = i
		return n, s.syntax("in numeric literal")
	}
	n.integer = true
	if i < len(d) && d[i] == '.' {
		i++
		n.integer = false
		start := i
		for ; i < len(d) && '0' <= d[i] && d[i] <= '9'; i++ {
			if digits++; digits <= 19 {
				mant = mant*10 + uint64(d[i]-'0')
			}
		}
		if i == start {
			s.pos = i
			return n, s.syntax("after decimal point in numeric literal")
		}
		n.exp = start - i
	}
	n.digits, n.mant = digits, mant
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		n.integer = false
		negExp := i < len(d) && d[i] == '-'
		if negExp || i < len(d) && d[i] == '+' {
			i++
		}
		start, e := i, 0
		for ; i < len(d) && '0' <= d[i] && d[i] <= '9'; i++ {
			if e < 1<<20 { // far past any float64; keeps e from overflowing
				e = e*10 + int(d[i]-'0')
			}
		}
		if i == start {
			s.pos = i
			return n, s.syntax("in exponent of numeric literal")
		}
		if negExp {
			e = -e
		}
		n.exp += e
	}
	s.pos = i
	return n, nil
}

// skipNumber consumes a number token, checking only its syntax: number
// without the digits' value, which Skip would throw away. It fails at the
// same offsets, with the same words.
func (s *Scanner) skipNumber() error {
	d, i := s.data, s.pos
	if d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = skipDigits(d, i+1)
	default:
		s.pos = i
		return s.syntax("in numeric literal")
	}
	if i < len(d) && d[i] == '.' {
		start := i + 1
		if i = skipDigits(d, start); i == start {
			s.pos = i
			return s.syntax("after decimal point in numeric literal")
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		start := i + 1
		if start < len(d) && (d[start] == '-' || d[start] == '+') {
			start++
		}
		if i = skipDigits(d, start); i == start {
			s.pos = i
			return s.syntax("in exponent of numeric literal")
		}
	}
	s.pos = i
	return nil
}

// skipDigits returns the offset of the first byte at or after i that is not
// a decimal digit.
func skipDigits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// float64 returns the number's value when it can be had exactly from the
// scanned digits; ok is false when the token needs strconv.ParseFloat. Two
// paths serve it, both correctly rounded:
//
//   - an integer below 2^53 scaled by a power of ten up to 10^22: both are
//     exact in float64, so one multiplication or division rounds correctly
//     (the fast path strconv.ParseFloat takes too);
//   - any other mantissa of at most 19 digits divided by 10^0…10^19: see
//     quotient.
func (n num) float64() (f float64, ok bool) {
	if n.digits > 19 {
		return 0, false
	}
	switch {
	case n.mant < 1<<53 && -22 <= n.exp && n.exp <= 22:
		f = float64(n.mant)
		if n.exp < 0 {
			f /= pow10[-n.exp]
		} else {
			f *= pow10[n.exp]
		}
	case -19 <= n.exp && n.exp <= 0:
		f = quotient(n.mant, uint64(pow10[-n.exp]))
	default:
		return 0, false
	}
	if n.neg {
		f = -f
	}
	return f, true
}

// quotient returns m/p rounded to the nearest float64, ties to even, for
// p ≥ 1. Both operands are shifted until their top bit is set; the 128-bit
// division then yields a 64-bit quotient whose top bit is set, the
// remainder is the sticky bit below it, and the quotient's low 11 bits
// decide the rounding of the 53 kept. m/p lies within [10^-19, 2^64), far
// from float64's subnormals and overflow, so the exponent needs no checks.
func quotient(m, p uint64) float64 {
	if m == 0 {
		return 0
	}
	sm, sp := bits.LeadingZeros64(m), bits.LeadingZeros64(p)
	m, p = m<<sm, p<<sp
	// m/p as q·2^e, q in [2^63, 2^64), plus rem/p units of the last place.
	e := sp - sm - 64
	var q, rem uint64
	if m < p {
		q, rem = bits.Div64(m, 0, p)
	} else {
		q, rem = bits.Div64(m>>1, m<<63, p)
		e++
	}
	mant, low := q>>11, q&(1<<11-1)
	e += 11
	if low > 1<<10 || low == 1<<10 && (rem != 0 || mant&1 == 1) {
		if mant++; mant == 1<<53 {
			mant >>= 1
			e++
		}
	}
	// mant is in [2^52, 2^53): its top bit is the implicit one.
	return math.Float64frombits(uint64(e+52+1023)<<52 | mant&(1<<52-1))
}

// pow10 holds the powers of ten float64 represents exactly (to 10^22);
// those up to 10^19 also convert exactly to uint64.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// skipString consumes a string, checking escapes and control characters.
func (s *Scanner) skipString() error {
	d := s.data
	for i := s.pos + 1; i < len(d); i++ {
		switch c := d[i]; {
		case c == '"':
			s.pos = i + 1
			return nil
		case c == '\\':
			i++
			if i >= len(d) {
				break
			}
			switch d[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 1; k <= 4; k++ {
					if i+k >= len(d) || !isHex(d[i+k]) {
						s.pos = min(i+k, len(d))
						return s.syntax("in \\u hexadecimal character escape")
					}
				}
				i += 4
			default:
				s.pos = i
				return s.syntax("in string escape code")
			}
		case c < ' ':
			s.pos = i
			return s.syntax("in string literal")
		}
	}
	s.pos = len(d)
	return s.syntax("")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// str consumes the string at the cursor and returns its value as
// encoding/json would produce it: escapes resolved, invalid UTF-8 and
// unpaired surrogates replaced by U+FFFD. A string that needs no rewriting —
// the common case — is returned as a view into the data.
func (s *Scanner) str() ([]byte, error) {
	d, start := s.data, s.pos+1
	for i := start; i < len(d); i++ {
		c := d[i]
		if c == '"' {
			s.pos = i + 1
			return d[start:i], nil
		}
		if c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			break
		}
	}
	if err := s.skipString(); err != nil {
		return nil, err
	}
	return unquote(d[start : s.pos-1]), nil
}

// unquote resolves the body of a string literal that skipString has already
// accepted, so every escape is well formed.
func unquote(in []byte) []byte {
	out := make([]byte, 0, len(in)+utf8.UTFMax)
	for r := 0; r < len(in); {
		switch c := in[r]; {
		case c == '\\':
			r++
			switch in[r] {
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				rr := hex4(in[r+1:])
				r += 4
				if utf16.IsSurrogate(rr) {
					// A surrogate stands only with its pair in the very next
					// escape; otherwise it alone becomes U+FFFD.
					pair := unicode.ReplacementChar
					if r+6 < len(in) && in[r+1] == '\\' && in[r+2] == 'u' {
						pair = utf16.DecodeRune(rr, hex4(in[r+3:]))
					}
					if pair != unicode.ReplacementChar {
						r += 6
					}
					rr = pair
				}
				out = utf8.AppendRune(out, rr)
			default: // '"', '\\', '/'
				out = append(out, in[r])
			}
			r++
		case c < utf8.RuneSelf:
			out = append(out, c)
			r++
		default:
			rr, size := utf8.DecodeRune(in[r:])
			out = utf8.AppendRune(out, rr)
			r += size
		}
	}
	return out
}

// hex4 decodes the four hexadecimal digits at the start of b.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// FieldIs reports whether a member name selects the field called name the
// way encoding/json selects struct fields: exactly, or else equal under
// Unicode case folding.
func FieldIs(key []byte, name string) bool {
	if string(key) == name {
		return true
	}
	// Folding maps at most a three-byte rune (U+212A, the Kelvin sign) onto
	// one ASCII letter, which bounds the length worth comparing — and keeps
	// the conversion of a hostile megabyte key off the heap.
	return len(key) <= 3*len(name) && strings.EqualFold(string(key), name)
}
