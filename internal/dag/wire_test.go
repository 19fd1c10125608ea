package dag

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"rsgen/internal/xrand"
)

// oracleDecode is the decoder this package shipped before the Scanner —
// encoding/json into the file struct, then New — kept as the reference the
// hand-written reader is compared against.
func oracleDecode(data []byte) (*DAG, error) {
	var f fileFormat
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&f); err != nil {
		return nil, err
	}
	return New(f.Tasks, f.Edges)
}

// hasTrailingBytes reports the first class the Scanner rejects and the oracle
// accepts: anything but whitespace after the document's first value, which
// json.Decoder leaves unread.
func hasTrailingBytes(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	var first json.RawMessage
	if dec.Decode(&first) != nil {
		return false
	}
	return len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0
}

// repeatsWireMember reports the second class: some object gives a member of
// the wire form twice (under the case folding both decoders match names
// with). It errs on the side of objects the decoders skip; there both accept.
func repeatsWireMember(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	failed := false // a malformed document ends the walk: both decoders reject it
	var value func() bool
	value = func() (repeat bool) {
		tok, err := dec.Token()
		if err != nil {
			failed = true
			return false
		}
		switch tok {
		case json.Delim('{'):
			seen := map[string]bool{}
			for !failed && dec.More() {
				key, err := dec.Token()
				if err != nil {
					failed = true
					return repeat
				}
				for _, name := range []string{"tasks", "edges", "id", "name", "cost", "from", "to"} {
					if strings.EqualFold(key.(string), name) {
						repeat = repeat || seen[name]
						seen[name] = true
					}
				}
				repeat = value() || repeat
			}
			dec.Token()
		case json.Delim('['):
			for !failed && dec.More() {
				repeat = value() || repeat
			}
			dec.Token()
		}
		return repeat
	}
	return value()
}

// checkAgainstOracle is the differential property: same verdict, and on
// accept the same tasks, edges and fingerprint — except that the two
// tightened classes may be rejected where the oracle accepts.
func checkAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	got, gerr := DecodeBytes(data)
	want, werr := oracleDecode(data)
	if gerr != nil && got != nil {
		t.Fatalf("DecodeBytes returned a DAG with error %v", gerr)
	}
	if gerr != nil && werr == nil && (hasTrailingBytes(data) || repeatsWireMember(data)) {
		return
	}
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("verdicts differ on %q:\n scanner: %v\n oracle:  %v", truncate(data), gerr, werr)
	}
	if gerr != nil {
		return
	}
	if !reflect.DeepEqual(got.Tasks(), want.Tasks()) {
		t.Fatalf("tasks differ on %q:\n scanner: %+v\n oracle:  %+v", truncate(data), got.Tasks(), want.Tasks())
	}
	if !reflect.DeepEqual(got.Edges(), want.Edges()) {
		t.Fatalf("edges differ on %q:\n scanner: %+v\n oracle:  %+v", truncate(data), got.Edges(), want.Edges())
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("fingerprints differ on %q: %016x vs %016x", truncate(data), got.Fingerprint(), want.Fingerprint())
	}
}

func truncate(b []byte) []byte {
	if len(b) > 200 {
		return append(b[:200:200], "…"...)
	}
	return b
}

// wireCases is the decoder contract, one document per line of it.
var wireCases = []struct {
	name string
	doc  string
	ok   bool
}{
	{"minimal", `{"tasks":[{"id":0,"cost":1}]}`, true},
	{"diamond", `{"tasks":[{"id":0,"cost":10},{"id":1,"cost":12},{"id":2,"cost":8}],"edges":[{"from":0,"to":1,"cost":2},{"from":0,"to":2,"cost":2}]}`, true},
	{"whitespace everywhere", " {\n\t\"tasks\" : [ { \"id\" : 0 , \"cost\" : 1 } ] ,\r\n \"edges\" : [ ] } \n", true},
	{"edges before tasks", `{"edges":[{"from":0,"to":1,"cost":0}],"tasks":[{"id":0,"cost":1},{"id":1,"cost":1}]}`, true},
	{"unknown members ignored", `{"version":[1,{"x":null}],"tasks":[{"id":0,"cost":1,"color":"red","deps":{"a":[true,false]}}],"note":"hi"}`, true},
	{"unknown member syntax still checked", `{"tasks":[{"id":0,"cost":1}],"note":[1,}`, false},
	{"unknown member number syntax checked", `{"tasks":[{"id":0,"cost":1}],"note":01}`, false},
	{"unknown member out-of-range number accepted", `{"tasks":[{"id":0,"cost":1}],"note":1e999}`, true},
	{"capitalised names", `{"Tasks":[{"ID":0,"Name":"a","COST":1},{"Id":1,"cOsT":2}],"EDGES":[{"From":0,"TO":1,"Cost":3}]}`, true},
	{"unicode-folded names", "{\"tas\u212as\":[{\"id\":0,\"co\u017ft\":1}],\"edge\u017f\":[]}", true},
	{"escaped member names", `{"\u0074asks":[{"\u0069d":0,"cos\u0074":1}]}`, true},
	{"null document", `null`, false},
	{"null tasks", `{"tasks":null}`, false},
	{"null edges", `{"tasks":[{"id":0,"cost":1}],"edges":null}`, true},
	{"null task is a zero task", `{"tasks":[null]}`, true},
	{"null fields stay zero", `{"tasks":[{"id":null,"name":null,"cost":null}]}`, true},
	{"null edge is a self-loop on 0", `{"tasks":[{"id":0,"cost":1}],"edges":[null]}`, false},
	{"empty tasks", `{"tasks":[]}`, false},
	{"empty object", `{}`, false},
	{"id 1.0", `{"tasks":[{"id":0,"cost":1},{"id":1.0,"cost":1}]}`, false},
	{"id 1e2", `{"tasks":[{"id":1e2,"cost":1}]}`, false},
	{"id 0.0", `{"tasks":[{"id":0.0,"cost":1}]}`, false},
	{"id -0", `{"tasks":[{"id":-0,"cost":1}]}`, true},
	{"id beyond int32", `{"tasks":[{"id":99999999999,"cost":1}]}`, false},
	{"id 2147483648", `{"tasks":[{"id":2147483648,"cost":1}]}`, false},
	{"from -2147483649", `{"tasks":[{"id":0,"cost":1}],"edges":[{"from":-2147483649,"to":0}]}`, false},
	{"id a hundred digits", `{"tasks":[{"id":` + strings.Repeat("9", 100) + `,"cost":1}]}`, false},
	{"id as string", `{"tasks":[{"id":"0","cost":1}]}`, false},
	{"cost 1e999", `{"tasks":[{"id":0,"cost":1e999}]}`, false},
	{"cost -1e999", `{"tasks":[{"id":0,"cost":-1e999}]}`, false},
	{"cost 1e-999 underflows to zero", `{"tasks":[{"id":0,"cost":1e-999}]}`, true},
	{"cost as string", `{"tasks":[{"id":0,"cost":"1"}]}`, false},
	{"cost true", `{"tasks":[{"id":0,"cost":true}]}`, false},
	{"cost negative", `{"tasks":[{"id":0,"cost":-1}]}`, false},
	{"cost negative zero", `{"tasks":[{"id":0,"cost":-0.0}]}`, true},
	{"cost with forty digits", `{"tasks":[{"id":0,"cost":1.000000000000000000000000000000000000001E+1}]}`, true},
	{"name as number", `{"tasks":[{"id":0,"name":7,"cost":1}]}`, false},
	{"name with escapes", `{"tasks":[{"id":0,"name":"a\"b\\c\/d\b\f\n\r\t\u00e9\u4e16","cost":1}]}`, true},
	{"name with surrogate pair", `{"tasks":[{"id":0,"name":"\ud83d\ude00!","cost":1}]}`, true},
	{"name with lone surrogates", `{"tasks":[{"id":0,"name":"\ud83d x \ude00 \ud83d\u0041 \ud83d\ud83d\ude00","cost":1}]}`, true},
	{"name with invalid utf-8", "{\"tasks\":[{\"id\":0,\"name\":\"a\xffb\xc3(\xe2\x82\",\"cost\":1}]}", true},
	{"name with raw utf-8", `{"tasks":[{"id":0,"name":"tâche-世界","cost":1}]}`, true},
	{"name with control character", "{\"tasks\":[{\"id\":0,\"name\":\"a\x01b\",\"cost\":1}]}", false},
	{"name with bad escape", `{"tasks":[{"id":0,"name":"\x41","cost":1}]}`, false},
	{"name with short \\u", `{"tasks":[{"id":0,"name":"\u12","cost":1}]}`, false},
	{"tasks an object", `{"tasks":{"id":0}}`, false},
	{"task a number", `{"tasks":[7]}`, false},
	{"edge an array", `{"tasks":[{"id":0,"cost":1}],"edges":[[]]}`, false},
	{"document an array", `[]`, false},
	{"document a string", `"dag"`, false},
	{"truncated", `{"tasks":[{"id":0,"cost":1}`, false},
	{"empty input", ``, false},
	{"missing comma", `{"tasks":[{"id":0 "cost":1}]}`, false},
	{"trailing comma", `{"tasks":[{"id":0,"cost":1},]}`, false},
	{"leading zero", `{"tasks":[{"id":00,"cost":1}]}`, false},
	{"bare minus", `{"tasks":[{"id":0,"cost":-}]}`, false},
	{"dangling exponent", `{"tasks":[{"id":0,"cost":1e}]}`, false},
	{"dangling fraction", `{"tasks":[{"id":0,"cost":1.}]}`, false},
	{"literal misspelt", `{"tasks":[{"id":0,"cost":1}],"x":nul}`, false},
	{"non-dense ids", `{"tasks":[{"id":1,"cost":1}]}`, false},
	{"cycle", `{"tasks":[{"id":0,"cost":1},{"id":1,"cost":1}],"edges":[{"from":0,"to":1},{"from":1,"to":0}]}`, false},
	{"nesting at the limit", `{"tasks":[{"id":0,"cost":1}],"x":` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `}`, true},
	{"nesting beyond the limit", `{"tasks":[{"id":0,"cost":1}],"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`, false},
	{"nesting far beyond the limit, unclosed", strings.Repeat(`{"a":[`, 300000), false},

	{"repeated unknown member is fine", `{"tasks":[{"id":0,"cost":2,"x":1,"x":2}],"y":1,"y":2}`, true},
}

// tightenedCases are documents of the two classes the oracle accepts and the
// Scanner refuses: bytes "trailing" the document, or a "repeated" member.
var tightenedCases = []struct {
	name  string
	doc   string
	class string
}{
	{"trailing bytes", `{"tasks":[{"id":0,"cost":1}]} trailing`, "trailing"},
	{"trailing document", `{"tasks":[{"id":0,"cost":1}]}{}`, "trailing"},
	{"repeated tasks", `{"tasks":[{"id":0,"name":"A","cost":2}],"tasks":[{"id":0,"cost":2},{"id":1,"cost":3}]}`, "repeated"},
	{"repeated tasks, folded", `{"tasks":[{"id":0,"cost":2}],"TASKS":[{"id":0,"cost":2}]}`, "repeated"},
	{"repeated edges", `{"tasks":[{"id":0,"cost":2},{"id":1,"cost":2}],"edges":[],"edges":[{"from":0,"to":1}]}`, "repeated"},
	{"repeated id", `{"tasks":[{"id":0,"id":0,"cost":2}]}`, "repeated"},
	{"repeated name", `{"tasks":[{"id":0,"name":"a","name":"a","cost":2}]}`, "repeated"},
	{"repeated cost", `{"tasks":[{"id":0,"cost":2,"Cost":2}]}`, "repeated"},
	{"repeated from", `{"tasks":[{"id":0,"cost":2},{"id":1,"cost":2}],"edges":[{"from":0,"from":0,"to":1}]}`, "repeated"},
	{"repeated to", `{"tasks":[{"id":0,"cost":2},{"id":1,"cost":2}],"edges":[{"from":0,"to":1,"to":1}]}`, "repeated"},
	{"repeated edge cost", `{"tasks":[{"id":0,"cost":2},{"id":1,"cost":2}],"edges":[{"from":0,"to":1,"cost":1,"cost":1}]}`, "repeated"},
}

func TestDecodeWireForm(t *testing.T) {
	for _, tc := range wireCases {
		t.Run(tc.name, func(t *testing.T) {
			data := []byte(tc.doc)
			d, err := DecodeBytes(data)
			if (err == nil) != tc.ok {
				t.Fatalf("DecodeBytes error = %v, want ok=%v", err, tc.ok)
			}
			if err != nil && d != nil {
				t.Fatal("DecodeBytes returned a DAG with an error")
			}
			if hasTrailingBytes(data) || repeatsWireMember(data) {
				t.Fatal("a predicate excuses a document outside the tightened classes")
			}
			checkAgainstOracle(t, data)
			// Decode is DecodeBytes behind a reader.
			if _, rerr := Decode(strings.NewReader(tc.doc)); (rerr == nil) != tc.ok {
				t.Fatalf("Decode error = %v, want ok=%v", rerr, tc.ok)
			}
		})
	}
}

// TestTightenedClasses pins what the two predicates excuse: documents the old
// decoder took and the Scanner refuses.
func TestTightenedClasses(t *testing.T) {
	for _, tc := range tightenedCases {
		data := []byte(tc.doc)
		if _, err := DecodeBytes(data); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if _, err := oracleDecode(data); err != nil {
			t.Errorf("%s: the oracle rejects it too (%v); it does not belong to a tightened class", tc.name, err)
		}
		if got := repeatsWireMember(data); got != (tc.class == "repeated") {
			t.Errorf("%s: repeatsWireMember = %v", tc.name, got)
		}
		if got := hasTrailingBytes(data); got != (tc.class == "trailing") {
			t.Errorf("%s: hasTrailingBytes = %v", tc.name, got)
		}
	}
}

// TestRepeatedTasksKeptStaleFields records why a repeated member is refused:
// encoding/json decodes the second array over the first and keeps fields the
// second leaves out.
func TestRepeatedTasksKeptStaleFields(t *testing.T) {
	d, err := oracleDecode([]byte(`{"tasks":[{"id":0,"name":"A","cost":2}],"tasks":[{"id":0,"cost":2},{"id":1,"cost":3}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if d.Task(0).Name != "A" {
		t.Skipf("encoding/json no longer reuses slice elements (task 0 = %+v)", d.Task(0))
	}
}

// TestDAGLeavesCursorAfterValue: a DAG that is JSON but not a valid DAG must
// not stop the envelope walk — the cursor ends up past the value.
func TestDAGLeavesCursorAfterValue(t *testing.T) {
	for _, doc := range []string{
		`{"tasks":[{"id":0,"cost":"1"}],"edges":[{"from":0}]}`,
		`{"tasks":[{"id":0,"cost":1,"cost":2}]}`,
		`{"tasks":[{"id":5,"cost":1}]}`,
		`[1,2,{"a":null}]`,
		`null`,
	} {
		body := []byte(`[` + doc + `,"next"]`)
		s := NewScanner(body)
		if ok, err := s.Element(true); !ok || err != nil {
			t.Fatal(ok, err)
		}
		d, err := s.DAG()
		var syn *SyntaxError
		if err == nil || d != nil || errors.As(err, &syn) {
			t.Fatalf("%s: DAG() = %v, %v; want a non-syntax error", doc, d, err)
		}
		if got := s.Offset(); got != 1+len(doc) {
			t.Errorf("%s: cursor at %d, want %d", doc, got, 1+len(doc))
		}
		if ok, err := s.Element(false); !ok || err != nil {
			t.Fatalf("%s: walk cannot continue: %v", doc, err)
		}
	}
	// Broken JSON inside the value outranks the wire-form error before it.
	s := NewScanner([]byte(`{"tasks":[{"id":0,"cost":"1"}],"edges":[}`))
	_, err := s.DAG()
	var syn *SyntaxError
	if !errors.As(err, &syn) {
		t.Fatalf("error = %v, want a *SyntaxError", err)
	}
}

// corpusDocs are the realistic seeds: the Fig. III-2 golden request and its
// DAG, a 400-task generated document, and a relabelled one — named tasks,
// permuted ids, shuffled edges.
func corpusDocs(t testing.TB) [][]byte {
	t.Helper()
	request, err := os.ReadFile("../../cmd/rsgend/testdata/fig_iii2_request.json")
	if err != nil {
		t.Fatal(err)
	}
	var envelope struct {
		Dag json.RawMessage `json:"dag"`
	}
	if err := json.Unmarshal(request, &envelope); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(22)
	big := MustGenerate(GenSpec{Size: 400, CCR: 0.5, Parallelism: 0.5, Density: 0.2, Regularity: 0.5, MeanCost: 40}, rng)
	small := MustGenerate(GenSpec{Size: 40, CCR: 0.5, Parallelism: 0.5, Density: 0.5, Regularity: 0.5, MeanCost: 40}, rng)
	docs := [][]byte{request, envelope.Dag}
	for _, d := range []*DAG{big, isomorph(small, rng)} {
		doc, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
	}
	return docs
}

// isomorph renumbers d's tasks by a random permutation, names them, and
// shuffles the edges: the same shape in different bytes.
func isomorph(d *DAG, rng *xrand.RNG) *DAG {
	perm := rng.Perm(d.Size())
	tasks := make([]Task, d.Size())
	for old, t := range d.Tasks() {
		tasks[perm[old]] = Task{ID: TaskID(perm[old]), Name: fmt.Sprintf("t%d-%d", perm[old], rng.Intn(1<<16)), Cost: t.Cost}
	}
	edges := make([]Edge, 0, d.NumEdges())
	for _, e := range d.Edges() {
		edges = append(edges, Edge{From: TaskID(perm[e.From]), To: TaskID(perm[e.To]), Cost: e.Cost})
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return MustNew(tasks, edges)
}

func TestDecodeCorpusMatchesOracle(t *testing.T) {
	for i, doc := range corpusDocs(t) {
		checkAgainstOracle(t, doc)
		if _, err := DecodeBytes(doc); (err == nil) != (i > 0) {
			t.Errorf("corpus document %d: error = %v", i, err)
		}
	}
}

// FuzzDecodeDifferential: arbitrary bytes through the Scanner and through the
// encoding/json oracle must agree on the verdict and, when accepted, on
// tasks, edges and fingerprint; only the two tightened classes are excused.
func FuzzDecodeDifferential(f *testing.F) {
	for _, doc := range corpusDocs(f) {
		f.Add(doc)
	}
	for _, tc := range wireCases {
		if len(tc.doc) < 1<<12 {
			f.Add([]byte(tc.doc))
		}
	}
	for _, tc := range tightenedCases {
		f.Add([]byte(tc.doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstOracle(t, data)
	})
}

// TestCostMatchesStrconv: a cost read off the scanned digits is bit for bit
// what strconv.ParseFloat makes of the token, on both sides of every bound of
// the exact path and over random values in every notation.
func TestCostMatchesStrconv(t *testing.T) {
	toks := []string{
		"0", "-0", "0.0", "-0.0", "1", "10", "0.1", "0.5", "100e-2", "0.1e1", "1E+2", "1e-2",
		"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740991e22", "9007199254740991e23",
		"9007199254740991e-22", "9007199254740991e-23", "1e22", "1e23", "1e-22", "1e-23",
		"1234567890123456789", "12345678901234567890", "123456789012345678901234567890",
		"0.1234567890123456789", "0.12345678901234567890", "1.234567890123456789e5",
		"0.0000000000000000000001", "0.00000000000000000000001", "0.0000000000000000000000000000000000000001e40",
		"1.7976931348623157e308", "4.9e-324", "5e-324", "2.2250738585072011e-308", "2.2250738585072014e-308",
		"1e-400", "0e999999999999999999999", "1e-999999999999999999999", "123456789e-30", "8.5e15", "50.43703359436758", "28.056743393915056",
	}
	rng := xrand.New(17)
	for i := 0; i < 20000; i++ {
		v := math.Float64frombits(rng.Uint64() &^ (1 << 63))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if i%2 == 0 {
			v = 100 * rng.Float64() // the range real costs live in
		}
		format, prec := "gef"[i%3], -1
		if i%5 == 0 {
			prec = rng.Intn(20)
		}
		if format == 'f' && (v > 1e30 || v < 1e-30) {
			format = 'e'
		}
		toks = append(toks, strconv.FormatFloat(v, format, prec, 64))
	}
	for _, tok := range toks {
		want, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			t.Fatalf("%s: %v", tok, err)
		}
		d, err := DecodeBytes([]byte(`{"tasks":[{"id":0,"cost":` + tok + `}]}`))
		if err != nil {
			t.Fatalf("%s: %v", tok, err)
		}
		if got := d.Task(0).Cost; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: decoded %v (%016x), strconv says %v (%016x)", tok, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	// The band the 128-bit division serves: mantissas in [2^53, 10^19) with
	// 1–19 fraction digits, its two edges, exact halfway ties between two
	// float64s and the tokens one unit either side of them, negatives too.
	// Costs below zero fail validation, so these are read by the scanner
	// alone.
	var band []string
	for _, m := range []uint64{1 << 53, 1<<53 + 1, 1e19 - 1, 1e19 - 2} {
		for k := 1; k <= 19; k++ {
			band = append(band, fracToken(m, k, false), fracToken(m, k, true))
		}
	}
	for i := 0; i < 20000; i++ {
		m := 1<<53 + rng.Uint64()%(1e19-1<<53)
		band = append(band, fracToken(m, 1+rng.Intn(19), i%2 == 1))
	}
	for i := 0; i < 4000; i++ {
		// (2M+1)/2^(j+1) with M in [2^52, 2^53) lies halfway between two
		// float64s and is written exactly with j+1 fraction digits:
		// (2M+1)·5^(j+1) of them, in at most 19 digits for j ≤ 2. For
		// j = 3, M is drawn so that the 19 digits are at least 2^63: an odd
		// mantissa whose lowest bit the division must keep.
		j, lo, hi := i%4, uint64(1<<52), uint64(1<<53)
		if j == 3 {
			lo, hi = 1<<63/625/2+1, (uint64(1e19)/625-1)/2
		}
		tie := (2*(lo+rng.Uint64()%(hi-lo)) + 1) * uint64(math.Pow(5, float64(j+1)))
		for _, m := range []uint64{tie - 1, tie, tie + 1} {
			band = append(band, fracToken(m, j+1, i%2 == 1))
		}
	}
	// Integers of 17–19 digits take the division too (by 10^0): ties
	// (2M+1)·2^(e-53) between float64s in [2^e, 2^(e+1)), and their
	// neighbours, up to 10^19.
	for i := 0; i < 2000; i++ {
		e := 53 + i%11
		tie := (2*(1<<52+rng.Uint64()%(1<<52)) + 1) << (e - 53)
		for tie >= 1e19-1 {
			tie = (2*(1<<52+rng.Uint64()%(1<<52)) + 1) << (e - 53)
		}
		for _, m := range []uint64{tie - 1, tie, tie + 1} {
			band = append(band, strconv.FormatUint(m, 10), "-"+strconv.FormatUint(m, 10))
		}
	}
	for _, tok := range band {
		checkCostToken(t, tok)
	}
}

// fracToken writes m with its last k digits as the fraction: "0.0…m" when m
// has no more than k digits.
func fracToken(m uint64, k int, neg bool) string {
	digits := strconv.FormatUint(m, 10)
	if len(digits) <= k {
		digits = strings.Repeat("0", k-len(digits)+1) + digits
	}
	tok := digits[:len(digits)-k] + "." + digits[len(digits)-k:]
	if neg {
		tok = "-" + tok
	}
	return tok
}

// checkCostToken reads tok with the scanner's cost reader and requires the
// bits strconv.ParseFloat gives it.
func checkCostToken(t *testing.T, tok string) {
	t.Helper()
	want, werr := strconv.ParseFloat(tok, 64)
	s := NewScanner([]byte(tok))
	got, err := s.cost("tasks", 0)
	if (err == nil) != (werr == nil) || s.Offset() != len(tok) {
		t.Fatalf("%s: scanner error %v at offset %d, strconv error %v", tok, err, s.Offset(), werr)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s: scanned %v (%016x), strconv says %v (%016x)", tok, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// FuzzCostDigits: any mantissa with a fraction of 1–19 digits, either sign,
// reads to the bits strconv.ParseFloat gives it.
func FuzzCostDigits(f *testing.F) {
	f.Add(uint64(1<<53), uint8(1), false)
	f.Add(uint64(1e19-1), uint8(19), true)
	f.Add(uint64(28056743393915056), uint8(15), false)
	f.Add(uint64(45035996273704965), uint8(1), false) // 2^52 + 1/2: a tie
	f.Add(uint64(1<<64-1), uint8(7), false)           // 20 digits: strconv's path
	f.Fuzz(func(t *testing.T, mant uint64, frac uint8, neg bool) {
		checkCostToken(t, fracToken(mant, 1+int(frac)%19, neg))
	})
}
