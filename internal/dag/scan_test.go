package dag

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// FuzzSkipValid holds Skip to its reference: Skip followed by End accepts
// exactly the texts encoding/json's Valid accepts, and on acceptance the
// cursor has passed every byte. A text that opens with a number is also run
// through number, the decoder's scan of the same token: the syntax-only
// skipNumber must stop where it stops and fail with its words.
func FuzzSkipValid(f *testing.F) {
	for _, seed := range []string{
		// Number syntax at its edges.
		`-`, `-0`, `01`, `1.`, `1e`, `1e+`, `1E-0`, `0`, `-01`, `1.5e3`, `-.5`, `+1`,
		`1.e5`, `1e5.`, `0.0e-0`, `123456789012345678901234567890`, `1E+`, `2e-`, `[1,-]`,
		// Strings and their escapes.
		`""`, `"é😀"`, `"\ud800"`, `"\u12g4"`, `"\q"`, `"a\"b\\c\/d\b\f\n\r\t"`,
		"\"\x01\"", `"unterminated`, "\"\xff\xfe\"",
		// Structure, literals, whitespace.
		`{"a":[1,{"b":null}],"c":true,"d":false}`, ` [ ] `, `{}`, `{"a" 1}`, `{"a":1,}`, `[1,]`,
		`tru`, `nul`, `[] []`, "", " ", "\t\n\r", "{\"a\":1}\x00",
		strings.Repeat("[", 10000) + strings.Repeat("]", 10000),
		strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
		strings.Repeat(`{"k":`, 40) + `"v"` + strings.Repeat("}", 40),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewScanner(data)
		err := s.Skip()
		if err == nil {
			err = s.End()
		}
		if want := json.Valid(data); (err == nil) != want {
			t.Fatalf("Skip+End = %v, json.Valid = %v", err, want)
		}
		if err == nil && s.Offset() != len(data) {
			t.Fatalf("accepted with the cursor at %d of %d", s.Offset(), len(data))
		}

		skip, scan := NewScanner(data), NewScanner(data)
		if c := skip.Peek(); c != '-' && (c < '0' || c > '9') {
			return
		}
		scan.Peek()
		skipErr := skip.skipNumber()
		_, scanErr := scan.number()
		if skip.Offset() != scan.Offset() || fmt.Sprint(skipErr) != fmt.Sprint(scanErr) {
			t.Fatalf("skipNumber stops at %d with %v; number at %d with %v", skip.Offset(), skipErr, scan.Offset(), scanErr)
		}
	})
}
