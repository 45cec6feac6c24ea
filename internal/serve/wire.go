package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"time"
	"unicode/utf16"
	"unicode/utf8"
)

// This file is the request wire format: one hand-written, single-pass
// decoder for the fixed /v1/predict and /v1/observe schemas, and the
// router's skim, which checks a predict body's syntax and reads only its
// model name and sample count.
//
// The decoder is a drop-in for json.Unmarshal into PredictRequest and
// ObserveRequest: it accepts exactly the bodies Unmarshal accepts and
// yields the same values.  Floats go through strconv.ParseFloat on the
// same literal, so they are bitwise identical; keys match fields
// case-insensitively (bytes.EqualFold, the rule encoding/json uses);
// null leaves a scalar untouched and clears a slice or map; a duplicate
// key decodes over the earlier value the way Unmarshal does (slices keep
// their backing array, maps are merged); out-of-range numbers, type
// mismatches, trailing data and nesting past 10000 levels are rejected.
// The fuzz targets in wire_fuzz_test.go hold it to that contract.

// maxNestingDepth is encoding/json's nesting limit.
const maxNestingDepth = 10000

// DefaultMaxBodyBytes is the request body cap a worker applies when
// Options.MaxBodyBytes is unset; the router reads predict bodies under
// the same cap, so an over-cap body fails there as it would here.
const DefaultMaxBodyBytes = 32 << 20

// maxPreGrow caps the buffer ReadBody sizes from a declared
// Content-Length before any body byte arrives; a longer body grows the
// buffer as its bytes come in.
const maxPreGrow = 64 << 10

// BodyReadTimeout bounds how long ReadBody waits for a request body, so
// a client that trickles its body cannot hold a connection and a growing
// buffer indefinitely.  The deadline covers the body read only: a
// handler that runs long after its body arrived keeps its connection.
const BodyReadTimeout = 10 * time.Second

// ReadBody reads r's body within BodyReadTimeout, failing with
// *http.MaxBytesError past limit bytes.  A declared Content-Length sizes
// the buffer up front, up to maxPreGrow.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	return readBodyWithin(w, r, limit, BodyReadTimeout)
}

// readBodyWithin is ReadBody with the deadline as a parameter.  The
// server lifts the connection's read deadline itself once the body
// reaches EOF.  A writer that cannot set deadlines
// (httptest.ResponseRecorder) reads without one.
func readBodyWithin(w http.ResponseWriter, r *http.Request, limit int64, timeout time.Duration) ([]byte, error) {
	_ = http.NewResponseController(w).SetReadDeadline(time.Now().Add(timeout))
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= limit {
		buf.Grow(int(min(n, maxPreGrow)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return buf.Bytes(), err
}

// SkimPredict checks that body is one well-formed JSON value and reads
// the request's model name and sample count from it, converting no
// number.  The returned request carries body itself: Client sends those
// bytes verbatim and Server.Predict decodes them, so a router forwards
// what it received without re-encoding it.  Schema errors (a field of
// the wrong type, a bad sample) are left to the worker.
func SkimPredict(body []byte) (*PredictRequest, error) {
	d := wireDecoder{data: body}
	req := &PredictRequest{body: body}
	var err error
	if d.peek() == '{' {
		err = d.object(func(key []byte) error {
			var ferr error
			switch c := d.peek(); {
			case c == '"' && bytes.EqualFold(key, keyModel):
				req.Model, ferr = d.str()
			case c == '[' && bytes.EqualFold(key, keySamples):
				req.bodySamples, ferr = d.array(func(int) error { return d.skip() })
			case c == 'n' && bytes.EqualFold(key, keySamples):
				req.bodySamples, ferr = 0, d.literal("null")
			default:
				ferr = d.skip()
			}
			return ferr
		})
	} else {
		err = d.skip()
	}
	if err == nil {
		err = d.end()
	}
	if err != nil {
		return nil, err
	}
	return req, nil
}

// decodePredict decodes a /v1/predict body.
func decodePredict(body []byte) (PredictRequest, error) {
	var req PredictRequest
	d := wireDecoder{data: body}
	err := d.top(func(key []byte) error {
		switch {
		case bytes.EqualFold(key, keySamples):
			return decodeArray(&d, &req.Samples, func(smp *Sample) error {
				return d.structure(func(key []byte) error {
					if ok, err := d.sampleField(key, smp); ok {
						return err
					}
					return d.skip()
				})
			})
		case bytes.EqualFold(key, keyModel):
			return d.string(&req.Model)
		case bytes.EqualFold(key, keyEmbed):
			return d.bool(&req.Embed)
		}
		if ok, err := d.sampleField(key, &req.Sample); ok {
			return err
		}
		return d.skip()
	})
	return req, err
}

// decodeObserve decodes a /v1/observe body.
func decodeObserve(body []byte) (ObserveRequest, error) {
	var req ObserveRequest
	d := wireDecoder{data: body}
	err := d.top(func(key []byte) error {
		if !bytes.EqualFold(key, keySamples) {
			return d.skip()
		}
		return decodeArray(&d, &req.Samples, func(ls *LabeledSample) error {
			return d.structure(func(key []byte) error {
				if ok, err := d.sampleField(key, &ls.Sample); ok {
					return err
				}
				if bytes.EqualFold(key, keyLabel) {
					return d.int(&ls.Label)
				}
				return d.skip()
			})
		})
	})
	return req, err
}

var (
	keySamples = []byte("samples")
	keyModel   = []byte("model")
	keyEmbed   = []byte("embed")
	keyDense   = []byte("dense")
	keySparse  = []byte("sparse")
	keyLabel   = []byte("label")
)

// wireDecoder walks one JSON document in a single pass.  pos is the next
// unread byte; depth counts the objects and arrays currently open.
type wireDecoder struct {
	data  []byte
	pos   int
	depth int
}

// peek skips whitespace and returns the next byte (0 at end of input).
func (d *wireDecoder) peek() byte {
	data, i := d.data, d.pos
	for ; i < len(data); i++ {
		if c := data[i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			d.pos = i
			return c
		}
	}
	d.pos = i
	return 0
}

// syntaxErr reports the byte at d.pos as unexpected.
func (d *wireDecoder) syntaxErr(context string) error {
	if d.pos >= len(d.data) {
		return fmt.Errorf("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q %s (offset %d)", d.data[d.pos], context, d.pos)
}

// mismatch rejects a value that cannot decode into a field of type want.
// A byte that starts no JSON value is a syntax error instead.
func (d *wireDecoder) mismatch(want string) error {
	var kind string
	switch c := d.peek(); {
	case c == '{':
		kind = "object"
	case c == '[':
		kind = "array"
	case c == '"':
		kind = "string"
	case c == 't' || c == 'f':
		kind = "bool"
	case c == '-' || '0' <= c && c <= '9':
		kind = "number"
	default:
		return d.syntaxErr("looking for beginning of value")
	}
	return fmt.Errorf("cannot decode %s into %s (offset %d)", kind, want, d.pos)
}

// end accepts only trailing whitespace after the top-level value.
func (d *wireDecoder) end() error {
	if d.peek() != 0 || d.pos < len(d.data) {
		return d.syntaxErr("after top-level value")
	}
	return nil
}

// top decodes the whole document as an object (field handles each key)
// or null, then requires the end of input.
func (d *wireDecoder) top(field func(key []byte) error) error {
	if err := d.structure(field); err != nil {
		return err
	}
	return d.end()
}

// structure decodes an object into a struct through field, or skips a
// null (which leaves a struct as it was).
func (d *wireDecoder) structure(field func(key []byte) error) error {
	switch d.peek() {
	case '{':
		return d.object(field)
	case 'n':
		return d.literal("null")
	}
	return d.mismatch("object")
}

func (d *wireDecoder) open() error {
	d.pos++
	d.depth++
	if d.depth > maxNestingDepth {
		return fmt.Errorf("exceeded max nesting depth %d (offset %d)", maxNestingDepth, d.pos)
	}
	return nil
}

// object walks the object at d.pos, calling field with each key
// (unescaped) positioned at its value; field must consume the value.
func (d *wireDecoder) object(field func(key []byte) error) error {
	if err := d.open(); err != nil {
		return err
	}
	if d.peek() == '}' {
		d.pos++
		d.depth--
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntaxErr("looking for beginning of object key string")
		}
		key, err := d.key()
		if err != nil {
			return err
		}
		if d.peek() != ':' {
			return d.syntaxErr("after object key")
		}
		d.pos++
		d.peek()
		if err := field(key); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			d.depth--
			return nil
		default:
			return d.syntaxErr("after object key:value pair")
		}
	}
}

// array walks the array at d.pos, calling elem with each element's
// index positioned at its value; elem must consume the value.  It
// returns the element count.
func (d *wireDecoder) array(elem func(i int) error) (int, error) {
	if err := d.open(); err != nil {
		return 0, err
	}
	n := 0
	if d.peek() != ']' {
		for {
			if err := elem(n); err != nil {
				return 0, err
			}
			n++
			if c := d.peek(); c == ']' {
				break
			} else if c != ',' {
				return 0, d.syntaxErr("after array element")
			}
			d.pos++
		}
	}
	d.pos++
	d.depth--
	return n, nil
}

// decodeArray decodes an array (or null) into *dst with encoding/json's
// slice semantics: null clears the slice; elements decode into the
// existing backing array, which a duplicate key leaves holding the
// earlier array's elements beyond its length; growth past capacity adds
// zeroed elements; [] leaves an empty non-nil slice.
func decodeArray[E any](d *wireDecoder, dst *[]E, elem func(*E) error) error {
	switch d.peek() {
	case 'n':
		*dst = nil
		return d.literal("null")
	case '[':
	default:
		return d.mismatch("array")
	}
	s := *dst
	n, err := d.array(func(i int) error {
		if i >= cap(s) {
			s = slices.Grow(s, 1)
		}
		if i >= len(s) {
			s = s[:i+1]
		}
		return elem(&s[i])
	})
	switch {
	case err != nil:
		return err
	case n == 0:
		*dst = []E{}
	default:
		*dst = s[:n]
	}
	return nil
}

// sampleField decodes the value of a Sample field named by key into smp,
// reporting whether key named one.
func (d *wireDecoder) sampleField(key []byte, smp *Sample) (bool, error) {
	switch {
	case bytes.EqualFold(key, keyDense):
		return true, decodeArray(d, &smp.Dense, d.float)
	case bytes.EqualFold(key, keySparse):
		return true, d.sparse(&smp.Sparse)
	}
	return false, nil
}

// sparse decodes an index→value object (or null) into *dst: keys parse
// as base-10 ints with strconv.ParseInt, each value decodes into a fresh
// zero (so null stores 0), and an existing map is added to.
func (d *wireDecoder) sparse(dst *map[int]float64) error {
	switch d.peek() {
	case 'n':
		*dst = nil
		return d.literal("null")
	case '{':
	default:
		return d.mismatch("sparse map")
	}
	if *dst == nil {
		*dst = make(map[int]float64)
	}
	m := *dst
	return d.object(func(key []byte) error {
		var v float64
		if err := d.float(&v); err != nil {
			return err
		}
		j, err := strconv.ParseInt(string(key), 10, strconv.IntSize)
		if err != nil {
			return fmt.Errorf("sparse key %q is not an int (offset %d)", key, d.pos)
		}
		m[int(j)] = v
		return nil
	})
}

// float decodes a number into *dst; null leaves it as it was.
func (d *wireDecoder) float(dst *float64) error {
	lit, err := d.numberOrNull("float64")
	if err != nil || lit == nil {
		return err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return fmt.Errorf("number %s out of float64 range (offset %d)", lit, d.pos)
	}
	*dst = f
	return nil
}

// int decodes an integer into *dst; null leaves it as it was.
func (d *wireDecoder) int(dst *int) error {
	lit, err := d.numberOrNull("int")
	if err != nil || lit == nil {
		return err
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		return fmt.Errorf("number %s is not an int (offset %d)", lit, d.pos)
	}
	*dst = int(n)
	return nil
}

// numberOrNull consumes a number and returns its literal, or consumes a
// null and returns nil; any other value is a mismatch with want.
func (d *wireDecoder) numberOrNull(want string) ([]byte, error) {
	switch c := d.peek(); {
	case c == 'n':
		return nil, d.literal("null")
	case c != '-' && (c < '0' || c > '9'):
		return nil, d.mismatch(want)
	}
	return d.number()
}

// bool decodes true or false into *dst; null leaves it as it was.
func (d *wireDecoder) bool(dst *bool) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case 't':
		*dst = true
		return d.literal("true")
	case 'f':
		*dst = false
		return d.literal("false")
	}
	return d.mismatch("bool")
}

// string decodes a string into *dst; null leaves it as it was.
func (d *wireDecoder) string(dst *string) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
		s, err := d.str()
		if err == nil {
			*dst = s
		}
		return err
	}
	return d.mismatch("string")
}

// literal consumes word (true, false or null), which starts at d.pos.
func (d *wireDecoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if d.pos >= len(d.data) || d.data[d.pos] != word[i] {
			return d.syntaxErr("in literal " + word)
		}
		d.pos++
	}
	return nil
}

// number consumes a number literal at d.pos, checking the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its bytes.
func (d *wireDecoder) number() ([]byte, error) {
	data, start := d.data, d.pos
	i := start
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case digits(data, &i) == 0:
		d.pos = i
		return nil, d.syntaxErr("in numeric literal")
	}
	if i < len(data) && data[i] == '.' {
		i++
		if digits(data, &i) == 0 {
			d.pos = i
			return nil, d.syntaxErr("after decimal point in numeric literal")
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if digits(data, &i) == 0 {
			d.pos = i
			return nil, d.syntaxErr("in exponent of numeric literal")
		}
	}
	d.pos = i
	return data[start:i], nil
}

// digits advances *i over a run of decimal digits in data and returns
// the run's length.
func digits(data []byte, i *int) int {
	n := 0
	for _, c := range data[*i:] {
		if c-'0' > 9 {
			break
		}
		n++
	}
	*i += n
	return n
}

// rawString consumes the string at d.pos, checking its escapes, and
// returns the bytes between the quotes and whether they need unquoting
// (an escape or a non-ASCII byte).
func (d *wireDecoder) rawString() ([]byte, bool, error) {
	data := d.data
	start := d.pos + 1
	plain := true
	for i := start; i < len(data); {
		switch c := data[i]; {
		case c == '"':
			d.pos = i + 1
			return data[start:i], plain, nil
		case c < 0x20:
			d.pos = i
			return nil, false, d.syntaxErr("in string literal")
		case c == '\\':
			plain = false
			switch {
			case i+1 < len(data) && unescape[data[i+1]] != 0:
				i += 2
			case u4(data[i:]) >= 0:
				i += 6
			default:
				d.pos = i
				return nil, false, d.syntaxErr("in string escape code")
			}
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			i++
		}
	}
	d.pos = len(data)
	return nil, false, d.syntaxErr("in string literal")
}

// key consumes an object key, unescaping it only when it has to.
func (d *wireDecoder) key() ([]byte, error) {
	raw, plain, err := d.rawString()
	if err != nil || plain {
		return raw, err
	}
	return unquote(raw), nil
}

// str consumes a string value.
func (d *wireDecoder) str() (string, error) {
	s, err := d.key()
	return string(s), err
}

// skip consumes any one JSON value, checking its syntax.
func (d *wireDecoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(func([]byte) error { return d.skip() })
	case c == '[':
		_, err := d.array(func(int) error { return d.skip() })
		return err
	case c == '"':
		_, _, err := d.rawString()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	}
	return d.syntaxErr("looking for beginning of value")
}

func hexVal(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// u4 reads the \uXXXX escape at the start of s, or returns -1.
func u4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		h := hexVal(c)
		if h < 0 {
			return -1
		}
		r = r<<4 | h
	}
	return r
}

// unquote decodes the syntax-checked bytes between a string's quotes as
// encoding/json does: escapes resolved, UTF-16 surrogate pairs joined,
// and lone surrogates and invalid UTF-8 replaced by U+FFFD.
func unquote(raw []byte) []byte {
	out := make([]byte, 0, len(raw)+utf8.UTFMax)
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\' && raw[i+1] == 'u':
			r := u4(raw[i:])
			i += 6
			if utf16.IsSurrogate(r) {
				r = utf16.DecodeRune(r, u4(raw[i:]))
				if r != utf8.RuneError {
					i += 6
				}
			}
			out = utf8.AppendRune(out, r)
		case c == '\\':
			out = append(out, unescape[raw[i+1]])
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	return out
}

// unescape maps the byte after a backslash to the byte it stands for.
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}
