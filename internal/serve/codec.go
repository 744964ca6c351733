package serve

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"tipsy/internal/wan"
)

// The wire codec of /v1/predict: DecodeRequest reads exactly Request
// and Flow, Response.AppendJSON writes exactly Response. The struct
// tags in predict.go stay the documented wire shape, and encoding/json
// driven by them is the oracle the tests hold both to: whatever
// DecodeRequest accepts, json.Unmarshal decodes to the same Request,
// and AppendJSON's bytes are json.Encoder's. Where encoding/json reads
// an input in a way no client means (a repeated key merges into the
// earlier value, "flowſ" names the flows field) the decoder refuses
// it; DESIGN.md §12 lists what it refuses.

const (
	// maxSkipDepth bounds how deep the value of a key that names no
	// field may nest.
	maxSkipDepth = 32
	// flowBytesGuess sizes the flow slice from the bytes left in the
	// body. A flow as clients write it takes 80 bytes or more, so for
	// them the guess is an upper bound; append covers everyone else.
	flowBytesGuess = 64
)

// decoder is a cursor over one request body. Request and Flow each
// have their own loop over their members; numbers are scanned once,
// an integer's value accumulated in the same scan.
type decoder struct {
	// s is the body and a final NUL. No JSON token holds a NUL, so no
	// match runs past it and the cursor needs no bounds checks. A
	// src_addr without escapes is a substring of s.
	s   string
	pos int
	// err is the first error. Setting it moves the cursor to the NUL,
	// where every loop below stops.
	err error
}

// DecodeRequest parses body — one JSON object or null, and nothing
// after it — into *req, overwriting it; after an error *req is
// unspecified. It allocates a copy of body and the two slices.
func DecodeRequest(body []byte, req *Request) error {
	*req = Request{}
	d := decoder{s: string(body) + "\x00"}
	d.request(req)
	if d.peek(); d.pos != len(d.s)-1 {
		d.fail("data after the request object")
	}
	return d.err
}

// request reads a Request object, or null.
func (d *decoder) request(req *Request) {
	if d.null() {
		return
	}
	var seen uint
	for more := d.open('{', '}'); more; more = d.more('}') {
		key := d.key()
		i := requestField(key)
		d.once(key, i, &seen)
		switch i {
		case 0:
			req.Flows = d.flows()
		case 1:
			req.ExcludeLinks = d.links()
		case 2:
			req.K = int(d.signed())
		default:
			d.skip(maxSkipDepth)
		}
	}
}

// requestField is the index of the Request field key names, or -1.
// encoding/json matches a key to a field by Unicode's case folding; on
// the ASCII keys key accepts that is ASCII's.
func requestField(key string) int {
	switch len(key) {
	case 5:
		if key == "flows" || foldsTo(key, "flows") {
			return 0
		}
	case 13:
		if key == "exclude_links" || foldsTo(key, "exclude_links") {
			return 1
		}
	case 1:
		if key == "k" || key == "K" {
			return 2
		}
	}
	return -1
}

// flows reads the flows array. As in encoding/json null stays nil, []
// is empty but not nil, and a null element is the zero Flow.
func (d *decoder) flows() []Flow {
	guess := (len(d.s) - d.pos) / flowBytesGuess
	if d.null() {
		return nil
	}
	out := make([]Flow, 0, guess)
	for more := d.open('[', ']'); more; more = d.more(']') {
		out = append(out, Flow{})
		d.flow(&out[len(out)-1])
	}
	return out
}

// flow reads a Flow object, or null.
func (d *decoder) flow(f *Flow) {
	if d.null() {
		return
	}
	var seen uint
	for more := d.open('{', '}'); more; more = d.more('}') {
		key := d.key()
		i := flowField(key)
		d.once(key, i, &seen)
		switch i {
		case 0:
			f.SrcAddr = d.str()
		case 1:
			f.SrcAS = uint32(d.unsigned(32))
		case 2:
			f.Region = uint16(d.unsigned(16))
		case 3:
			f.Service = uint8(d.unsigned(8))
		case 4:
			f.Bytes = d.float()
		default:
			d.skip(maxSkipDepth)
		}
	}
}

// flowField is the index of the Flow field key names, or -1, matched
// as requestField matches.
func flowField(key string) int {
	switch len(key) {
	case 8:
		if key == "src_addr" || foldsTo(key, "src_addr") {
			return 0
		}
	case 6:
		if key == "src_as" || foldsTo(key, "src_as") {
			return 1
		}
		if key == "region" || foldsTo(key, "region") {
			return 2
		}
	case 7:
		if key == "service" || foldsTo(key, "service") {
			return 3
		}
	case 5:
		if key == "bytes" || foldsTo(key, "bytes") {
			return 4
		}
	}
	return -1
}

// links reads the exclude_links array, null and its elements as flows
// reads flows.
func (d *decoder) links() []wan.LinkID {
	if d.null() {
		return nil
	}
	out := make([]wan.LinkID, 0)
	for more := d.open('[', ']'); more; more = d.more(']') {
		out = append(out, wan.LinkID(d.unsigned(32)))
	}
	return out
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("bad request JSON at byte %d: %s", d.pos, what)
	}
	d.pos = len(d.s) - 1
}

// peek skips white space and returns the byte after it, unconsumed.
func (d *decoder) peek() byte {
	if c := d.s[d.pos]; c > ' ' {
		return c
	}
	return d.space()
}

func (d *decoder) space() byte {
	s, i := d.s, d.pos
	for ; ; i++ {
		switch c := s[i]; c {
		case ' ', '\t', '\r', '\n':
		default:
			d.pos = i
			return c
		}
	}
}

// expect consumes lit, which must come next after white space.
func (d *decoder) expect(lit string) {
	if c := d.peek(); c != lit[0] || len(lit) > 1 && !strings.HasPrefix(d.s[d.pos:], lit) {
		d.fail("want " + lit)
		return
	}
	d.pos += len(lit)
}

// null consumes a null if that is the next value. As in
// encoding/json, a null leaves any field at its zero value.
func (d *decoder) null() bool {
	if d.peek() != 'n' {
		return false
	}
	d.expect("null")
	return true
}

// open consumes the '{' or '[' that must come next and reports
// whether a member follows; an empty object or array it consumes
// whole. With more it drives the loop over an object's or array's
// members.
func (d *decoder) open(open, end byte) bool {
	if d.peek() != open {
		d.fail("want " + string(open))
		return false
	}
	d.pos++
	if d.peek() == end {
		d.pos++
		return false
	}
	return true
}

// more consumes what follows a member: the end, and it reports false,
// or a comma before the next member.
func (d *decoder) more(end byte) bool {
	switch d.peek() {
	case end:
		d.pos++
		return false
	case ',':
		d.pos++
		return true
	}
	d.fail("want ,")
	return false
}

// key reads an object's key and the colon after it. encoding/json
// matches keys after unescaping them and folding case by Unicode's
// rules; a key of unescaped ASCII needs neither, and every other key
// is refused.
func (d *decoder) key() string {
	if d.peek() != '"' {
		d.fail(`want "`)
		return ""
	}
	d.pos++
	s, end := d.s, d.pos
	for ; end < len(s); end++ {
		c := s[end]
		if c == '"' {
			break
		}
		if c < ' ' || c == '\\' || c >= utf8.RuneSelf {
			d.fail("object keys must be unescaped ASCII")
			return ""
		}
	}
	key := s[d.pos:end]
	d.pos = end + 1
	if d.peek() != ':' {
		d.fail("want :")
		return ""
	}
	d.pos++
	return key
}

// once refuses the second appearance of the i-th field of an object
// (i < 0 names none), which encoding/json would merge into the first.
func (d *decoder) once(key string, i int, seen *uint) {
	if i < 0 {
		return
	}
	if *seen&(1<<i) != 0 {
		d.fail("duplicate key " + key)
	}
	*seen |= 1 << i
}

// foldsTo reports whether key is name, a lower-case ASCII name of the
// same length, but for the case of its letters.
func foldsTo(key, name string) bool {
	for i := 0; i < len(name); i++ {
		if c, n := key[i], name[i]; c != n && !('a' <= n && n <= 'z' && c == n-'a'+'A') {
			return false
		}
	}
	return true
}

// skip steps over one value of any type — the value of a key that
// names no field — holding it to the JSON grammar as encoding/json's
// scanner does, and an object's keys to what key accepts.
func (d *decoder) skip(depth int) {
	switch c := d.peek(); {
	case depth == 0:
		d.fail("unknown field nests deeper than " + strconv.Itoa(maxSkipDepth))
	case c == '"':
		d.str()
	case c == 't':
		d.expect("true")
	case c == 'f':
		d.expect("false")
	case c == '{':
		for more := d.open('{', '}'); more; more = d.more('}') {
			d.key()
			d.skip(depth - 1)
		}
	case c == '[':
		for more := d.open('[', ']'); more; more = d.more(']') {
			d.skip(depth - 1)
		}
	default: // a number, or null
		d.number()
	}
}

// digits consumes a run of digits and reports whether there was one.
func (d *decoder) digits() bool {
	start := d.pos
	for end := start; ; end++ {
		if c := d.s[end]; c < '0' || c > '9' {
			d.pos = end
			return end > start
		}
	}
}

// number scans one JSON number, null reading as 0. It returns the
// number's text ("0" for null and after an error), its integer
// part's magnitude, which saturates above 1<<63 into wide, and
// whether a fraction or an exponent follows the integer part.
func (d *decoder) number() (text string, mag uint64, wide, frac bool) {
	if d.null() {
		return "0", 0, false, false
	}
	s, start := d.s, d.pos
	i := start
	if s[i] == '-' {
		i++
	}
	switch c := s[i]; {
	case c == '0':
		i++
	case '1' <= c && c <= '9':
		for ; i < len(s); i++ {
			digit := s[i] - '0'
			if digit > 9 {
				break
			}
			if mag > (1<<63)/10 {
				wide = true
			} else {
				mag = mag*10 + uint64(digit)
			}
		}
	default:
		d.pos = i
		d.fail("want a number")
		return "0", 0, false, false
	}
	d.pos = i
	if c := s[i]; c != '.' && c != 'e' && c != 'E' {
		return s[start:i], mag, wide, false
	}
	if d.s[d.pos] == '.' {
		d.pos++
		if !d.digits() {
			d.fail("want a digit after the decimal point")
			return "0", 0, false, false
		}
		frac = true
	}
	if c := d.s[d.pos]; c == 'e' || c == 'E' {
		d.pos++
		if c := d.s[d.pos]; c == '+' || c == '-' {
			d.pos++
		}
		if !d.digits() {
			d.fail("want a digit in the exponent")
			return "0", 0, false, false
		}
		frac = true
	}
	return d.s[start:d.pos], mag, wide, frac
}

// unsigned reads an integer that must fit bits bits. Its errors are
// strconv.ParseUint's: encoding/json fits neither 1.0 nor 1e2 into an
// integer.
func (d *decoder) unsigned(bits int) uint64 {
	text, mag, wide, frac := d.number()
	switch {
	case frac:
		d.fail("want an integer")
	case text[0] == '-':
		d.numError("ParseUint", text, strconv.ErrSyntax)
	case wide || mag > 1<<bits-1:
		d.numError("ParseUint", text, strconv.ErrRange)
	}
	return mag
}

// signed reads an int, with strconv.ParseInt's errors.
func (d *decoder) signed() int64 {
	text, mag, wide, frac := d.number()
	limit := uint64(1)<<(strconv.IntSize-1) - 1
	neg := text[0] == '-'
	if neg {
		limit++
	}
	switch {
	case frac:
		d.fail("want an integer")
	case wide || mag > limit:
		d.numError("ParseInt", text, strconv.ErrRange)
	}
	if neg {
		return -int64(mag)
	}
	return int64(mag)
}

// float reads a float64. An integer that a float64 holds exactly
// needs no ParseFloat: that is the value ParseFloat would return.
func (d *decoder) float() float64 {
	text, mag, wide, frac := d.number()
	if !frac && !wide && mag <= 1<<53 {
		if text[0] == '-' {
			return -float64(mag)
		}
		return float64(mag)
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		d.fail(err.Error())
	}
	return f
}

// numError fails as strconv's fn fails on text.
func (d *decoder) numError(fn, text string, err error) {
	d.fail((&strconv.NumError{Func: fn, Num: text, Err: err}).Error())
}

// str reads a string. One without escapes is returned as a substring
// of the body. Invalid UTF-8, which encoding/json would quietly
// replace with U+FFFD, is an error.
func (d *decoder) str() string {
	if d.null() {
		return ""
	}
	d.expect(`"`)
	s := d.s
	var buf []byte // the unescaped string so far, once there is an escape
	for i := d.pos; ; {
		switch c := s[i]; {
		case c == '"':
			run := s[d.pos:i]
			d.pos = i + 1
			if buf == nil {
				return run
			}
			return string(append(buf, run...))
		case c == '\\':
			buf = append(buf, s[d.pos:i]...)
			d.pos = i
			buf = utf8.AppendRune(buf, d.escape())
			i = d.pos
		case c < ' ':
			d.pos = i
			d.fail("control character or end of body in a string")
			return ""
		case c < utf8.RuneSelf:
			i++
		default:
			r, n := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && n == 1 {
				d.pos = i
				d.fail("invalid UTF-8 in a string")
				return ""
			}
			i += n
		}
	}
}

// escape consumes the backslash escape under the cursor and returns
// its rune. As in encoding/json, a \u surrogate half that its other
// half does not follow reads as U+FFFD.
func (d *decoder) escape() rune {
	esc := d.s[d.pos:]
	if i := strings.IndexByte(`"\/bfnrt`, esc[1]); i >= 0 {
		d.pos += 2
		return rune("\"\\/\b\f\n\r\t"[i])
	}
	r, ok := hex4(esc)
	if !ok {
		d.fail("bad escape")
		return 0
	}
	d.pos += 6
	if low, ok := hex4(esc[6:]); ok && utf16.DecodeRune(r, low) != utf8.RuneError {
		d.pos += 6
		return utf16.DecodeRune(r, low)
	}
	if utf16.IsSurrogate(r) {
		return utf8.RuneError
	}
	return r
}

// hex4 reads the \u escape s starts with.
func hex4(s string) (rune, bool) {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return 0, false
	}
	n, err := strconv.ParseUint(s[2:6], 16, 16)
	return rune(n), err == nil
}

// AppendJSON appends resp to dst, byte for byte what
// json.NewEncoder(w).Encode(resp) writes, final newline included: nil
// slices and a nil map as null, shifted's keys in string order,
// encoding/json's float format and its string escapes. Like
// encoding/json it refuses NaN and the infinities.
func (resp *Response) AppendJSON(dst []byte) ([]byte, error) {
	b, finite := append(dst, `{"results":`...), true
	if resp.Results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range resp.Results {
			res := &resp.Results[i]
			b = strconv.AppendInt(append(comma(b, i), `{"flow":`...), int64(res.Flow), 10)
			b = appendString(append(b, `,"model":`...), res.Model)
			b = append(b, `,"links":`...)
			if res.Links == nil {
				b = append(b, "null}"...)
				continue
			}
			b = append(b, '[')
			for j, l := range res.Links {
				b = strconv.AppendUint(append(comma(b, j), `{"link":`...), uint64(l.Link), 10)
				b = appendFloat(append(b, `,"frac":`...), l.Frac, &finite)
				b = appendFloat(append(b, `,"bytes":`...), l.Bytes, &finite)
				b = append(b, '}')
			}
			b = append(b, "]}"...)
		}
		b = append(b, ']')
	}
	b = append(b, `,"shifted":`...)
	if resp.Shifted == nil {
		b = append(b, "null"...)
	} else {
		// encoding/json sorts map keys as strings, "10" before "9".
		// Integers sort alike for: the link padded with zeros on the
		// right to ten digits, then its digit count in the low bits.
		keys := make([]uint64, 0, len(resp.Shifted))
		for l := range resp.Shifted {
			padded, digits := uint64(l), uint64(1)
			for p := uint64(10); p <= uint64(l); p *= 10 {
				digits++
			}
			for i := digits; i < 10; i++ {
				padded *= 10
			}
			keys = append(keys, padded<<4|digits)
		}
		slices.Sort(keys)
		b = append(b, '{')
		for i, k := range keys {
			l := k >> 4
			for digits := k & 15; digits < 10; digits++ {
				l /= 10
			}
			b = append(strconv.AppendUint(append(comma(b, i), '"'), l, 10), `":`...)
			b = appendFloat(b, resp.Shifted[wan.LinkID(l)], &finite)
		}
		b = append(b, '}')
	}
	if !finite {
		return dst, errors.New("response holds a NaN or an infinity, which JSON cannot carry")
	}
	return append(b, "}\n"...), nil
}

// comma separates the i-th element of a list from the one before it.
func comma(b []byte, i int) []byte {
	if i > 0 {
		b = append(b, ',')
	}
	return b
}

// appendFloat is encoding/json's float64 format: the shortest decimal
// that round-trips, with an exponent only below 1e-6 and from 1e21.
// appendFixed writes the fixed-notation range; strconv writes zero,
// the exponent range, NaN and the infinities.
func appendFloat(b []byte, f float64, finite *bool) []byte {
	abs := math.Abs(f)
	if fixedMin <= abs && abs < fixedMax {
		return appendFixed(b, f)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		*finite = false
	}
	if abs == 0 {
		return strconv.AppendFloat(b, f, 'f', -1, 64)
	}
	b = strconv.AppendFloat(b, f, 'e', -1, 64)
	if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 is written e-9
		b = b[:n-1]
	}
	return b
}

// appendString is encoding/json's string format under its default
// HTML escaping: <, >, &, U+2028 and U+2029 as \u escapes, and each
// byte of invalid UTF-8 as an escaped U+FFFD.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c, size := rune(s[i]), 1
		if c >= utf8.RuneSelf {
			c, size = utf8.DecodeRuneInString(s[i:])
		}
		plain := c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' &&
			c != 0x2028 && c != 0x2029 && !(c == utf8.RuneError && size == 1)
		if !plain {
			b = append(b, s[start:i]...)
			if j := strings.IndexByte("\"\\\b\f\n\r\t", s[i]); j >= 0 {
				b = append(b, '\\', `"\bfnrt`[j])
			} else {
				b = append(b, '\\', 'u', hex[c>>12], hex[c>>8&0xF], hex[c>>4&0xF], hex[c&0xF])
			}
			start = i + size
		}
		i += size
	}
	return append(append(b, s[start:]...), '"')
}
