package serve

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// The observe codec: a single-pass decoder for the ObserveRequest body
// and a direct encoder for jobResponse replies, both working in pooled
// buffers. The decoder accepts exactly the bodies encoding/json's
// Decoder with DisallowUnknownFields accepts for ObserveRequest (and
// decodes them to the same values, float bits included), except that
// non-whitespace after the object is refused. The encoder writes the
// bytes json.Encoder with SetEscapeHTML(false) writes. FuzzObserveBody
// and TestJobReplyMatchesEncoder hold both to encoding/json.

// maxObserveBody caps an observe request body.
const maxObserveBody = 16 << 20

// maxPooledCodecBuf is the largest buffer returned to codecBufs: a rare
// large body must not pin its memory in the pool.
const maxPooledCodecBuf = 64 << 10

// codecBufs holds the request-body and reply buffers.
var codecBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

func getCodecBuf() *[]byte { return codecBufs.Get().(*[]byte) }

func putCodecBuf(b *[]byte) {
	if cap(*b) > maxPooledCodecBuf {
		return
	}
	*b = (*b)[:0]
	codecBufs.Put(b)
}

// readObserveRequest reads r's body, capped at maxObserveBody, into a
// pooled buffer and decodes it. The request it returns shares no memory
// with the buffer.
func readObserveRequest(w http.ResponseWriter, r *http.Request) (ObserveRequest, error) {
	bp := getCodecBuf()
	defer putCodecBuf(bp)
	body := *bp
	src := http.MaxBytesReader(w, r.Body, maxObserveBody)
	for {
		if len(body) == cap(body) {
			body = append(body, 0)[:len(body)]
		}
		n, err := src.Read(body[len(body):cap(body)])
		body = body[:len(body)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			*bp = body
			return ObserveRequest{}, fmt.Errorf("serve: bad request body: %w", err)
		}
	}
	*bp = body
	return decodeObserveRequest(body)
}

// decodeObserveRequest decodes one JSON body. Every refusal is a
// *RequestError (HTTP 400) and returns the zero request.
func decodeObserveRequest(body []byte) (ObserveRequest, error) {
	d := observeDecoder{data: body}
	var req ObserveRequest
	if err := d.request(&req); err != nil {
		return ObserveRequest{}, err
	}
	return req, nil
}

// observeDecoder is the parse state over one body.
type observeDecoder struct {
	data []byte
	off  int
	key  []byte // unescaped key scratch, used only for keys with escapes
}

func (d *observeDecoder) errorf(format string, args ...any) error {
	return badRequest("body offset %d: %s", d.off, fmt.Sprintf(format, args...))
}

// errAt describes the byte at the cursor as a syntax error.
func (d *observeDecoder) errAt(context string) error {
	if d.off >= len(d.data) {
		return d.errorf("unexpected end of JSON input")
	}
	return d.errorf("invalid character %q %s", d.data[d.off], context)
}

func (d *observeDecoder) skipSpace() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// peek returns the byte at the cursor, or 0 at the end.
func (d *observeDecoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

// null consumes a null literal if one is at the cursor.
func (d *observeDecoder) null() (bool, error) {
	if d.peek() != 'n' {
		return false, nil
	}
	return true, d.literal("null")
}

func (d *observeDecoder) literal(lit string) error {
	if !bytes.HasPrefix(d.data[d.off:], []byte(lit)) {
		for i := 0; i < len(lit) && d.off < len(d.data) && d.data[d.off] == lit[i]; i++ {
			d.off++
		}
		return d.errAt("in literal " + lit)
	}
	d.off += len(lit)
	return nil
}

// request parses the whole body: one object (or null) and nothing but
// whitespace after it.
func (d *observeDecoder) request(req *ObserveRequest) error {
	d.skipSpace()
	if err := d.object("serve.ObserveRequest", observeFields[:], func(f int) error {
		return d.observeField(req, f)
	}); err != nil {
		return err
	}
	d.skipSpace()
	if d.off < len(d.data) {
		return d.errAt("after top-level value")
	}
	return nil
}

// observeFields are ObserveRequest's JSON names, indexed by the cases of
// observeField.
var observeFields = [...]string{"features", "readings", "pattern_hour", "temperature_f",
	"frozen_nodes", "reports", "gamma_m", "seed", "wait"}

// reportFields are ReportIn's JSON names, indexed by the cases of report.
var reportFields = [...]string{"x", "y", "slot"}

// observeField decodes the value of ObserveRequest field f. Like
// encoding/json, null clears a slice or pointer and leaves a number or
// bool as it was, and a repeated key decodes into what the earlier one
// left.
func (d *observeDecoder) observeField(req *ObserveRequest, f int) error {
	switch f {
	case 0:
		return decodeArray(d, &req.Features, countNumbers, (*observeDecoder).float)
	case 1:
		return decodeArray(d, &req.Readings, countNumbers, (*observeDecoder).float)
	case 2:
		return decodePointer(d, &req.PatternHour, (*observeDecoder).int)
	case 3:
		return decodePointer(d, &req.TemperatureF, (*observeDecoder).float)
	case 4:
		return decodeArray(d, &req.FrozenNodes, countNumbers, (*observeDecoder).int)
	case 5:
		return decodeArray(d, &req.Reports, countObjects, (*observeDecoder).report)
	case 6:
		return d.float(&req.GammaM)
	case 7:
		return d.int64(&req.Seed)
	default:
		return d.bool(&req.Wait)
	}
}

// report decodes one reports element into r (null leaves it as it was).
func (d *observeDecoder) report(r *ReportIn) error {
	return d.object("serve.ReportIn", reportFields[:], func(f int) error {
		switch f {
		case 0:
			return d.float(&r.X)
		case 1:
			return d.float(&r.Y)
		default:
			return d.int(&r.Slot)
		}
	})
}

// object parses an object (or null, which changes nothing) whose keys
// must name one of fields, matched exactly and then case-folded as
// encoding/json matches them; field decodes the value of fields[i].
func (d *observeDecoder) object(typ string, fields []string, field func(i int) error) error {
	if isNull, err := d.null(); isNull || err != nil {
		return err
	}
	if err := d.typeCheck('{', typ); err != nil {
		return err
	}
	d.off++
	d.skipSpace()
	if d.peek() == '}' {
		d.off++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.errAt("looking for beginning of object key string")
		}
		key, err := d.keyString()
		if err != nil {
			return err
		}
		i := matchField(key, fields)
		if i < 0 {
			return d.errorf("unknown field %q", key)
		}
		d.skipSpace()
		if d.peek() != ':' {
			return d.errAt("after object key")
		}
		d.off++
		d.skipSpace()
		if err := field(i); err != nil {
			return err
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.off++
			d.skipSpace()
		case '}':
			d.off++
			return nil
		default:
			return d.errAt("after object key:value pair")
		}
	}
}

// matchField returns the index of the field key names: an exact match
// first, then a case-insensitive one (bytes.EqualFold, the same
// equivalence as encoding/json's folded-name index). -1 if none.
func matchField(key []byte, fields []string) int {
	for i, f := range fields {
		if string(key) == f {
			return i
		}
	}
	for i, f := range fields {
		if bytes.EqualFold(key, []byte(f)) {
			return i
		}
	}
	return -1
}

// keyString parses the string at the cursor and returns its unescaped
// bytes, which alias the body unless the key holds escapes. Invalid
// UTF-8 is kept as is: it matches no field name either way.
func (d *observeDecoder) keyString() ([]byte, error) {
	d.off++ // opening quote
	start := d.off
	escaped := false
	for {
		if d.off >= len(d.data) {
			return nil, d.errorf("unexpected end of JSON input")
		}
		c := d.data[d.off]
		switch {
		case c == '"':
			raw := d.data[start:d.off]
			d.off++
			if !escaped {
				return raw, nil
			}
			return d.unescape(raw), nil
		case c == '\\':
			escaped = true
			d.off++
			if d.off >= len(d.data) {
				return nil, d.errorf("unexpected end of JSON input")
			}
			switch d.data[d.off] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.off++
			case 'u':
				d.off++
				for i := 0; i < 4; i++ {
					if d.off >= len(d.data) {
						return nil, d.errorf("unexpected end of JSON input")
					}
					if !isHex(d.data[d.off]) {
						return nil, d.errAt("in \\u hexadecimal character escape")
					}
					d.off++
				}
			default:
				return nil, d.errAt("in string escape code")
			}
		case c < 0x20:
			return nil, d.errAt("in string literal")
		default:
			d.off++
		}
	}
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// hex4 decodes the four hex digits of a \u escape that keyString has
// already validated.
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

// unescape resolves the escapes of a validated string body into d.key,
// as encoding/json's unquote does: a \u surrogate pair joins into one
// rune and a lone surrogate becomes U+FFFD.
func (d *observeDecoder) unescape(raw []byte) []byte {
	b := d.key[:0]
	for i := 0; i < len(raw); {
		c := raw[i]
		if c != '\\' {
			b = append(b, c)
			i++
			continue
		}
		switch e := raw[i+1]; e {
		case 'b':
			b = append(b, '\b')
		case 'f':
			b = append(b, '\f')
		case 'n':
			b = append(b, '\n')
		case 'r':
			b = append(b, '\r')
		case 't':
			b = append(b, '\t')
		case 'u':
			r := hex4(raw[i+2:])
			i += 6
			if utf16.IsSurrogate(r) {
				if i+6 <= len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
					if dec := utf16.DecodeRune(r, hex4(raw[i+2:])); dec != utf8.RuneError {
						b = utf8.AppendRune(b, dec)
						i += 6
						continue
					}
				}
				r = utf8.RuneError
			}
			b = utf8.AppendRune(b, r)
			continue
		default: // '"', '\\', '/'
			b = append(b, e)
		}
		i += 2
	}
	d.key = b
	return b
}

// typeCheck refuses a value at the cursor that does not start with
// want: a type error for the start of any other JSON value, a syntax
// error otherwise.
func (d *observeDecoder) typeCheck(want byte, typ string) error {
	switch c := d.peek(); {
	case c == want:
		return nil
	case c == '{', c == '[', c == '"', c == 't', c == 'f', c == '-', '0' <= c && c <= '9':
		return d.errorf("cannot unmarshal %s into Go value of type %s", valueKind(c), typ)
	default:
		return d.errAt("looking for beginning of value")
	}
}

func valueKind(c byte) string {
	switch c {
	case '{':
		return "object"
	case '[':
		return "array"
	case '"':
		return "string"
	case 't', 'f':
		return "bool"
	default:
		return "number"
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number parses a number token at the cursor for a value of Go type typ.
func (d *observeDecoder) number(typ string) ([]byte, error) {
	if c := d.peek(); c != '-' && !isDigit(c) {
		return nil, d.typeCheck('-', typ)
	}
	start := d.off
	if d.peek() == '-' {
		d.off++
	}
	switch c := d.peek(); {
	case c == '0':
		d.off++
	case isDigit(c):
		for isDigit(d.peek()) {
			d.off++
		}
	default:
		return nil, d.errAt("in numeric literal")
	}
	if d.peek() == '.' {
		d.off++
		if !isDigit(d.peek()) {
			return nil, d.errAt("after decimal point in numeric literal")
		}
		for isDigit(d.peek()) {
			d.off++
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.off++
		if c := d.peek(); c == '+' || c == '-' {
			d.off++
		}
		if !isDigit(d.peek()) {
			return nil, d.errAt("in exponent of numeric literal")
		}
		for isDigit(d.peek()) {
			d.off++
		}
	}
	return d.data[start:d.off], nil
}

// float decodes a number into p with strconv.ParseFloat, as
// encoding/json does, so the bits match; null leaves p as it was.
func (d *observeDecoder) float(p *float64) error {
	if isNull, err := d.null(); isNull || err != nil {
		return err
	}
	tok, err := d.number("float64")
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return d.errorf("cannot unmarshal number %s into Go value of type float64", tok)
	}
	*p = v
	return nil
}

// int decodes an integer into p; a fraction, an exponent or overflow is
// refused. null leaves p as it was.
func (d *observeDecoder) int(p *int) error {
	if isNull, err := d.null(); isNull || err != nil {
		return err
	}
	tok, err := d.number("int")
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		return d.errorf("cannot unmarshal number %s into Go value of type int", tok)
	}
	*p = int(v)
	return nil
}

// int64 is int for an int64 field.
func (d *observeDecoder) int64(p *int64) error {
	if isNull, err := d.null(); isNull || err != nil {
		return err
	}
	tok, err := d.number("int64")
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		return d.errorf("cannot unmarshal number %s into Go value of type int64", tok)
	}
	*p = v
	return nil
}

// bool decodes true or false into p; null leaves p as it was.
func (d *observeDecoder) bool(p *bool) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case 't':
		*p = true
		return d.literal("true")
	case 'f':
		*p = false
		return d.literal("false")
	default:
		return d.typeCheck('t', "bool")
	}
}

// decodePointer decodes into *p, allocating it if nil; null sets it nil.
func decodePointer[T any](d *observeDecoder, p **T, elem func(*observeDecoder, *T) error) error {
	if d.peek() == 'n' {
		*p = nil
		return d.literal("null")
	}
	if *p == nil {
		*p = new(T)
	}
	return elem(d, *p)
}

// decodeArray decodes an array into *p with elem; null sets it nil and
// [] to an empty non-nil slice. Elements land in the slice's existing
// backing array up to its capacity, as encoding/json's reuse of it does:
// for a repeated key, a null element keeps what the earlier array put
// there. count estimates the elements left from the cursor when the
// backing array must grow; growth at least doubles it, so a poor
// estimate costs no more than linear time and memory.
func decodeArray[T any](d *observeDecoder, p *[]T, count func([]byte) int, elem func(*observeDecoder, *T) error) error {
	if d.peek() == 'n' {
		*p = nil
		return d.literal("null")
	}
	if d.peek() != '[' {
		return d.typeCheck('[', fmt.Sprintf("%T", *p))
	}
	d.off++
	d.skipSpace()
	if d.peek() == ']' {
		d.off++
		*p = []T{}
		return nil
	}
	all := (*p)[:cap(*p)]
	for i := 0; ; i++ {
		if i == len(all) {
			grown := make([]T, i+max(count(d.data[d.off:]), i, 1))
			copy(grown, all)
			all = grown
		}
		if err := elem(d, &all[i]); err != nil {
			return err
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.off++
			d.skipSpace()
		case ']':
			d.off++
			*p = all[:i+1]
			return nil
		default:
			return d.errAt("after array element")
		}
	}
}

// countNumbers counts the elements of a number array from its first
// element on: one more than the commas before the first ']'. It is exact
// for every array the decoder accepts; any other array is refused.
func countNumbers(rest []byte) int {
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return bytes.Count(rest, []byte{','}) + 1
}

// countObjects counts the objects of a reports array from its first
// element on: the '{' before the first ']'. Null elements are not
// counted.
func countObjects(rest []byte) int {
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return bytes.Count(rest, []byte{'{'})
}

// writeJobResponse writes r with status code from a pooled buffer. A
// reply that cannot be encoded (a non-finite float) answers 500 with the
// error envelope instead.
func writeJobResponse(w http.ResponseWriter, code int, r *jobResponse) {
	bp := getCodecBuf()
	defer putCodecBuf(bp)
	b, err := appendJobResponse((*bp)[:0], r)
	*bp = b
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(b)
}

// appendJobResponse appends r as json.Encoder with SetEscapeHTML(false)
// encodes it, trailing newline included.
func appendJobResponse(b []byte, r *jobResponse) ([]byte, error) {
	b = append(b, `{"job":`...)
	b = appendJSONString(b, r.Job)
	b = append(b, `,"state":`...)
	b = appendJSONString(b, string(r.State))
	if res := r.Result; res != nil {
		var err error
		b = append(b, `,"result":{"leak_nodes":`...)
		b = appendJSONInts(b, res.LeakNodes)
		b = append(b, `,"leak_ids":`...)
		if res.LeakIDs == nil {
			b = append(b, "null"...)
		} else {
			b = append(b, '[')
			for i, id := range res.LeakIDs {
				if i > 0 {
					b = append(b, ',')
				}
				b = appendJSONString(b, id)
			}
			b = append(b, ']')
		}
		b = append(b, `,"proba":`...)
		if res.Proba == nil {
			b = append(b, "null"...)
		} else {
			b = append(b, '[')
			for i, p := range res.Proba {
				if i > 0 {
					b = append(b, ',')
				}
				if b, err = appendJSONFloat(b, p); err != nil {
					return b, err
				}
			}
			b = append(b, ']')
		}
		if len(res.HumanAdded) > 0 {
			b = append(b, `,"human_added":`...)
			b = appendJSONInts(b, res.HumanAdded)
		}
		b = append(b, `,"latency_seconds":`...)
		if b, err = appendJSONFloat(b, res.LatencySeconds); err != nil {
			return b, err
		}
		b = append(b, '}')
	}
	if r.Error != "" {
		b = append(b, `,"error":`...)
		b = appendJSONString(b, r.Error)
	}
	if r.Code != "" {
		b = append(b, `,"code":`...)
		b = appendJSONString(b, r.Code)
	}
	return append(b, "}\n"...), nil
}

func appendJSONInts(b []byte, v []int) []byte {
	if v == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// appendJSONFloat formats f as encoding/json does (ES6 number to
// string: exponent form below 1e-6 and from 1e21 on, with no leading
// zero in a negative exponent). NaN and ±Inf are refused.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("serve: encode reply: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// appendJSONString quotes s as encoding/json does without HTML
// escaping: control bytes, '"' and '\\' escaped, invalid UTF-8 as
// \ufffd, and U+2028/U+2029 escaped.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
