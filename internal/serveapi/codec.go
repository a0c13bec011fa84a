package serveapi

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"ftsched/internal/model"
)

// This file is the hand codec of the /v1/dispatch DTOs: a single-pass,
// reflection-free JSON reader and an append-based writer whose behaviour
// is pinned to encoding/json, the codec's test oracle. The reader accepts
// exactly the bodies json.Unmarshal accepts and yields the same values,
// including its less obvious rules: keys match case-insensitively,
// duplicate keys decode into the value already there, and null leaves a
// scalar unchanged. The writer emits the bytes json.Marshal (requests)
// and json.Encoder (responses, with the trailing newline) emit.

// maxNestingDepth is encoding/json's nesting bound.
const maxNestingDepth = 10000

// errFormat marks a body whose format field, read by the codec, is
// missing or not FormatV1. The caller classifies such a body with
// sniffFormat, which words the error exactly as the envelope decoder
// always has.
var errFormat = errors.New("api format mismatch")

// decoder reads one JSON document in place.
type decoder struct {
	data  []byte
	off   int
	depth int
	key   []byte // scratch for keys that need unquoting
}

func (d *decoder) syntaxError(what string) error {
	return fmt.Errorf("invalid JSON at offset %d: %s", d.off, what)
}

// typeError reports a value of the wrong JSON type for a field.
func (d *decoder) typeError(field, want string) error {
	got := "value"
	if d.off < len(d.data) {
		switch c := d.data[d.off]; {
		case c == '{':
			got = "object"
		case c == '[':
			got = "array"
		case c == '"':
			got = "string"
		case c == 't' || c == 'f':
			got = "bool"
		default:
			got = "number"
		}
	}
	return fmt.Errorf("field %q: cannot decode %s as %s", field, got, want)
}

func (d *decoder) skipSpace() {
	data, i := d.data, d.off
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	d.off = i
}

// peek returns the first byte of the next token, or 0 at the end.
func (d *decoder) peek() byte {
	if d.off < len(d.data) && d.data[d.off] > ' ' {
		return d.data[d.off]
	}
	d.skipSpace()
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

// end requires that only whitespace follows the top-level value.
func (d *decoder) end() error {
	if d.skipSpace(); d.off != len(d.data) {
		return d.syntaxError("data after the top-level value")
	}
	return nil
}

func (d *decoder) enter() error {
	if d.depth++; d.depth > maxNestingDepth {
		return d.syntaxError("exceeded max depth")
	}
	return nil
}

// literal consumes the keyword lit (true, false or null).
func (d *decoder) literal(lit string) error {
	if len(d.data)-d.off < len(lit) || string(d.data[d.off:d.off+len(lit)]) != lit {
		return d.syntaxError("invalid literal")
	}
	d.off += len(lit)
	return nil
}

// null consumes a null literal if one is next.
func (d *decoder) null() (bool, error) {
	if d.peek() != 'n' {
		return false, nil
	}
	return true, d.literal("null")
}

// str consumes a string and returns its raw contents between the quotes;
// plain reports that they contain neither escapes nor non-ASCII bytes,
// so the raw contents are the decoded string.
func (d *decoder) str() (raw []byte, plain bool, err error) {
	start := d.off + 1
	plain = true
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			return d.data[start:i], plain, nil
		case c == '\\':
			plain = false
			i++
			if i == len(d.data) {
				break
			}
			switch d.data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(d.data) {
					d.off = len(d.data)
					return nil, false, d.syntaxError("unterminated string")
				}
				for _, h := range d.data[i+1 : i+5] {
					if !isHex(h) {
						d.off = i
						return nil, false, d.syntaxError("invalid \\u escape")
					}
				}
				i += 4
			default:
				d.off = i
				return nil, false, d.syntaxError("invalid escape")
			}
		case c < 0x20:
			d.off = i
			return nil, false, d.syntaxError("control character in string")
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	d.off = len(d.data)
	return nil, false, d.syntaxError("unterminated string")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote appends the decoded form of a validated string's raw contents,
// as encoding/json decodes it: escapes resolved, invalid UTF-8 and
// unpaired surrogates replaced by U+FFFD.
func unquote(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			switch e := raw[i+1]; e {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(raw[i+2:])
				i += 6
				if utf16.IsSurrogate(r) {
					if i+6 <= len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
						if dec := utf16.DecodeRune(r, hex4(raw[i+2:])); dec != unicode.ReplacementChar {
							dst = utf8.AppendRune(dst, dec)
							i += 6
							continue
						}
					}
					r = unicode.ReplacementChar
				}
				dst = utf8.AppendRune(dst, r)
				continue
			default: // '"', '\\', '/'
				dst = append(dst, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, n := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += n
		}
	}
	return dst
}

// hex4 decodes four validated hex digits.
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

// number consumes a number and returns its text; integer reports that it
// has neither fraction nor exponent.
func (d *decoder) number() (text []byte, integer bool, err error) {
	start, i := d.off, d.off
	if d.data[i] == '-' {
		i++
	}
	switch {
	case i < len(d.data) && d.data[i] == '0':
		i++
	case i < len(d.data) && '1' <= d.data[i] && d.data[i] <= '9':
		i = digits(d.data, i+1)
	default:
		d.off = i
		return nil, false, d.syntaxError("invalid number")
	}
	integer = true
	if i < len(d.data) && d.data[i] == '.' {
		integer = false
		if j := digits(d.data, i+1); j > i+1 {
			i = j
		} else {
			d.off = j
			return nil, false, d.syntaxError("invalid number")
		}
	}
	if i < len(d.data) && (d.data[i] == 'e' || d.data[i] == 'E') {
		integer = false
		i++
		if i < len(d.data) && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		if j := digits(d.data, i); j > i {
			i = j
		} else {
			d.off = j
			return nil, false, d.syntaxError("invalid number")
		}
	}
	d.off = i
	return d.data[start:i], integer, nil
}

// digits returns the end of the run of decimal digits starting at i.
func digits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// skip consumes one value of any type, checking its syntax.
func (d *decoder) skip() error {
	switch d.peek() {
	case '{':
		return d.object(func([]byte) error { return d.skip() })
	case '[':
		return d.array(d.skip)
	case '"':
		_, _, err := d.str()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		_, _, err := d.number()
		return err
	}
	return d.syntaxError("expected a value")
}

// object consumes an object, calling member with each unquoted key while
// the decoder sits at the member's value; member must consume it.
func (d *decoder) object(member func(key []byte) error) error {
	if d.peek() != '{' {
		return d.syntaxError("expected an object")
	}
	d.off++
	if err := d.enter(); err != nil {
		return err
	}
	if d.peek() == '}' {
		d.off++
		d.depth--
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntaxError("expected a key")
		}
		raw, plain, err := d.str()
		if err != nil {
			return err
		}
		key := raw
		if !plain {
			d.key = unquote(d.key[:0], raw)
			key = d.key
		}
		if d.peek() != ':' {
			return d.syntaxError("expected ':' after a key")
		}
		d.off++
		if err := member(key); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.off++
		case '}':
			d.off++
			d.depth--
			return nil
		default:
			return d.syntaxError("expected ',' or '}'")
		}
	}
}

// array consumes an array, calling elem at each element.
func (d *decoder) array(elem func() error) error {
	if d.peek() != '[' {
		return d.syntaxError("expected an array")
	}
	d.off++
	if err := d.enter(); err != nil {
		return err
	}
	if d.peek() == ']' {
		d.off++
		d.depth--
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.off++
		case ']':
			d.off++
			d.depth--
			return nil
		default:
			return d.syntaxError("expected ',' or ']'")
		}
	}
}

// field returns the index of the name key matches, or -1. encoding/json
// tries an exact match and then a case-insensitive one; the dispatch
// DTOs' names are distinct under case folding, so a single
// bytes.EqualFold scan is the same rule.
func field(key []byte, names [][]byte) int {
	for i, name := range names {
		if bytes.EqualFold(key, name) {
			return i
		}
	}
	return -1
}

func keys(names ...string) [][]byte {
	out := make([][]byte, len(names))
	for i, n := range names {
		out[i] = []byte(n)
	}
	return out
}

// decodeString decodes into a string field; null leaves it unchanged.
func (d *decoder) decodeString(v *string, name string) error {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	if d.peek() != '"' {
		return d.typeError(name, "string")
	}
	raw, plain, err := d.str()
	if err != nil {
		return err
	}
	switch {
	case plain && string(raw) == FormatV1:
		*v = FormatV1 // the format tag every body carries, without a copy
	case plain:
		*v = string(raw)
	default:
		*v = string(unquote(nil, raw))
	}
	return nil
}

// decodeBool decodes into a bool field; null leaves it unchanged.
func (d *decoder) decodeBool(v *bool, name string) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case 't':
		*v = true
		return d.literal("true")
	case 'f':
		*v = false
		return d.literal("false")
	}
	return d.typeError(name, "bool")
}

func isNumberStart(c byte) bool { return c == '-' || '0' <= c && c <= '9' }

// decodeInt decodes into an integer field; null leaves it unchanged. A
// fraction, an exponent or a value out of T's range is a type error, as
// in encoding/json.
func decodeInt[T int | model.Time](d *decoder, v *T, name string) error {
	n, null, err := d.integer(name)
	if null || err != nil {
		return err
	}
	if int64(T(n)) != n {
		return fmt.Errorf("field %q: number %d overflows an integer", name, n)
	}
	*v = T(n)
	return nil
}

// integer reads an int64 or a null.
func (d *decoder) integer(name string) (n int64, null bool, err error) {
	c := d.peek()
	if c == 'n' {
		return 0, true, d.literal("null")
	}
	if !isNumberStart(c) {
		return 0, false, d.typeError(name, "integer")
	}
	// Fast path, most of a batch: at most 18 digits (no overflow
	// possible), no leading zero, and no fraction or exponent after them.
	data, i := d.data, d.off
	if c == '-' {
		i++
	}
	start := i
	var u uint64
	for ; i < len(data) && i-start < 18 && '0' <= data[i] && data[i] <= '9'; i++ {
		u = u*10 + uint64(data[i]-'0')
	}
	if i > start && (data[start] != '0' || i == start+1) && (i == len(data) || !numberTail(data[i])) {
		d.off = i
		if c == '-' {
			return -int64(u), false, nil
		}
		return int64(u), false, nil
	}
	text, integer, err := d.number()
	if err != nil {
		return 0, false, err
	}
	if !integer {
		return 0, false, fmt.Errorf("field %q: cannot decode number %s as integer", name, text)
	}
	neg := text[0] == '-'
	if neg {
		text = text[1:]
	}
	u = 0
	overflow := len(text) > 19 // 19 digits cannot overflow a uint64
	if !overflow {
		for _, c := range text {
			u = u*10 + uint64(c-'0')
		}
		overflow = !neg && u > math.MaxInt64 || neg && u > -math.MinInt64
	}
	if overflow {
		return 0, false, fmt.Errorf("field %q: number %s overflows an integer", name, text)
	}
	if neg {
		return -int64(u), false, nil
	}
	return int64(u), false, nil
}

// numberTail reports whether c continues a number past its integer digits.
func numberTail(c byte) bool {
	return '0' <= c && c <= '9' || c == '.' || c == 'e' || c == 'E'
}

// decodeFloat decodes into a float64 field; null leaves it unchanged.
func (d *decoder) decodeFloat(v *float64, name string) error {
	c := d.peek()
	if c == 'n' {
		return d.literal("null")
	}
	if !isNumberStart(c) {
		return d.typeError(name, "number")
	}
	text, _, err := d.number()
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		return fmt.Errorf("field %q: cannot decode number %s as float64", name, text)
	}
	*v = f
	return nil
}

// decodeSlice decodes an array into *s the way encoding/json decodes
// into an existing slice: elements are decoded in place over the old
// ones (a null element keeps what was there), the length becomes the
// element count, an empty array yields a fresh non-nil empty slice and
// null yields nil.
func decodeSlice[T any](d *decoder, s *[]T, name string, elem func(*T) error) error {
	switch d.peek() {
	case 'n':
		*s = nil
		return d.literal("null")
	case '[':
	default:
		return d.typeError(name, "array")
	}
	v := *s
	i := 0
	err := d.array(func() error {
		switch {
		case i == cap(v):
			var zero T
			v = append(v, zero)
		case i == len(v):
			v = v[:i+1]
		}
		i++
		return elem(&v[i-1])
	})
	if err != nil {
		return err
	}
	if i == 0 {
		v = make([]T, 0)
	}
	*s = v[:i]
	return nil
}

// span locates one decoded integer slice inside a shared arena: the
// slice is arena[off:off+len], set distinguishes empty from nil, and
// arena[off:off+cap] holds what earlier decodes into the same slice left
// behind (a later null element keeps it, as in encoding/json).
type span struct {
	off, len, cap int
	set           bool
}

// decodeSpan is decodeSlice for an integer slice that lives in arena.
// The span's region is kept at the arena's end while it is decoded into,
// so it can grow in place.
func decodeSpan[T int | model.Time](d *decoder, arena *[]T, s *span, name string) error {
	switch d.peek() {
	case 'n':
		*s = span{}
		return d.literal("null")
	case '[':
	default:
		return d.typeError(name, "array")
	}
	if s.off+s.cap != len(*arena) {
		off := len(*arena)
		*arena = append(*arena, (*arena)[s.off:s.off+s.cap]...)
		s.off = off
	}
	i := 0
	err := d.array(func() error {
		if i == s.cap {
			*arena = append(*arena, 0)
			s.cap++
		}
		i++
		return decodeInt(d, &(*arena)[s.off+i-1], name)
	})
	if err != nil {
		return err
	}
	if i == 0 {
		*s = span{off: len(*arena), set: true}
		return nil
	}
	s.len, s.set = i, true
	return nil
}

// carve copies a span out of its arena into the next s.len elements of
// dst, advancing *at; the result's capacity ends at its length, so
// appending to one cycle's slice never overwrites the next one's.
func carve[T any](dst []T, at *int, arena []T, s span) []T {
	if !s.set {
		return nil
	}
	out := dst[*at : *at+s.len : *at+s.len]
	copy(out, arena[s.off:s.off+s.len])
	*at += s.len
	return out
}

var (
	requestKeys  = keys("format", "tree_key", "app", "options", "cycles", "workers")
	optionKeys   = keys("m", "sweep_samples", "min_gain", "eval_scenarios", "disable_revival", "workers")
	cycleKeys    = keys("durations", "faults_at")
	responseKeys = keys("format", "tree_key", "cache_hit", "results")
	resultKeys   = keys("utility", "makespan", "final_node", "switches", "recoveries",
		"faults_consumed", "hard_violations", "energy")
)

// cycleSpans is a decoded CycleJSON whose slices still live in the
// request scratch arenas.
type cycleSpans struct {
	durations, faultsAt span
	// gen is the request that last wrote the record. A record a pooled
	// slice exposes from an earlier request reads as zero, as the fresh
	// slice encoding/json would decode into holds zeros.
	gen uint64
}

// requestScratch holds the arenas one request decodes into before its
// cycles are copied out into two exactly sized backing arrays.
type requestScratch struct {
	gen       uint64
	cycles    []cycleSpans
	durations []model.Time
	faultsAt  []int
}

// maxPooledScratch bounds the arenas kept for reuse, so one huge batch
// does not pin its memory in the pool.
const maxPooledScratch = 1 << 16

var requestScratchPool = sync.Pool{New: func() any { return new(requestScratch) }}

// decodeDispatchRequest decodes a dispatch request body in one pass. It
// returns errFormat when the body decodes but its format field is
// missing or not FormatV1.
func decodeDispatchRequest(data []byte) (*DispatchRequest, error) {
	sc := requestScratchPool.Get().(*requestScratch)
	defer func() {
		if cap(sc.cycles) <= maxPooledScratch && cap(sc.durations) <= maxPooledScratch && cap(sc.faultsAt) <= maxPooledScratch {
			requestScratchPool.Put(sc)
		}
	}()
	sc.gen++
	sc.cycles, sc.durations, sc.faultsAt = sc.cycles[:0], sc.durations[:0], sc.faultsAt[:0]

	req := new(DispatchRequest)
	// formatSet tracks the format member as the sniffer's *string sees
	// it: a later null unsets it.
	formatSet, cyclesSet := false, false
	d := decoder{data: data}
	member := func(key []byte) error {
		switch field(key, requestKeys) {
		case 0:
			null, err := d.null()
			formatSet = !null
			if null || err != nil {
				return err
			}
			return d.decodeString(&req.Format, "format")
		case 1:
			return d.decodeString(&req.TreeKey, "tree_key")
		case 2: // app: the raw value, as json.RawMessage copies it
			d.skipSpace()
			start := d.off
			if err := d.skip(); err != nil {
				return err
			}
			req.App = append(req.App[:0], d.data[start:d.off]...)
			return nil
		case 3:
			if null, err := d.null(); null || err != nil {
				req.Options = nil
				return err
			}
			if d.peek() != '{' {
				return d.typeError("options", "object")
			}
			if req.Options == nil {
				req.Options = new(FTQSOptionsJSON)
			}
			return d.decodeOptions(req.Options)
		case 4:
			cyclesSet = true
			return decodeSlice(&d, &sc.cycles, "cycles", func(c *cycleSpans) error {
				if c.gen != sc.gen {
					*c = cycleSpans{gen: sc.gen}
				}
				if null, err := d.null(); null || err != nil {
					return err
				}
				if d.peek() != '{' {
					return d.typeError("cycles", "object")
				}
				return d.object(func(key []byte) error {
					switch field(key, cycleKeys) {
					case 0:
						return decodeSpan(&d, &sc.durations, &c.durations, "durations")
					case 1:
						return decodeSpan(&d, &sc.faultsAt, &c.faultsAt, "faults_at")
					}
					return d.skip()
				})
			})
		case 5:
			return decodeInt(&d, &req.Workers, "workers")
		}
		return d.skip()
	}
	null, err := d.null() // a null body decodes to no format at all
	if !null && err == nil {
		err = d.object(member)
	}
	if err == nil {
		err = d.end()
	}
	if err != nil {
		return nil, err
	}
	if !formatSet || req.Format != FormatV1 {
		return nil, errFormat
	}
	if cyclesSet && sc.cycles != nil {
		req.Cycles = materialize(sc)
	}
	return req, nil
}

// materialize copies the decoded cycles out of the scratch arenas: one
// backing array for every cycle's durations, one for every fault count.
func materialize(sc *requestScratch) []CycleJSON {
	nd, nf := 0, 0
	for _, c := range sc.cycles {
		nd += c.durations.len
		nf += c.faultsAt.len
	}
	durations, faultsAt := make([]model.Time, nd), make([]int, nf)
	out := make([]CycleJSON, len(sc.cycles))
	nd, nf = 0, 0
	for i, c := range sc.cycles {
		out[i].Durations = carve(durations, &nd, sc.durations, c.durations)
		out[i].FaultsAt = carve(faultsAt, &nf, sc.faultsAt, c.faultsAt)
	}
	return out
}

func (d *decoder) decodeOptions(o *FTQSOptionsJSON) error {
	return d.object(func(key []byte) error {
		switch field(key, optionKeys) {
		case 0:
			return decodeInt(d, &o.M, "m")
		case 1:
			return decodeInt(d, &o.SweepSamples, "sweep_samples")
		case 2:
			return d.decodeFloat(&o.MinGain, "min_gain")
		case 3:
			return decodeInt(d, &o.EvalScenarios, "eval_scenarios")
		case 4:
			return d.decodeBool(&o.DisableRevival, "disable_revival")
		case 5:
			return decodeInt(d, &o.Workers, "workers")
		}
		return d.skip()
	})
}

// DecodeDispatchResponse decodes a dispatch response body. It accepts
// exactly what json.Unmarshal into a DispatchResponse accepts, with the
// same result.
func DecodeDispatchResponse(data []byte) (*DispatchResponse, error) {
	resp := new(DispatchResponse)
	d := decoder{data: data}
	null, err := d.null()
	if !null && err == nil {
		err = d.object(func(key []byte) error {
			switch field(key, responseKeys) {
			case 0:
				return d.decodeString(&resp.Format, "format")
			case 1:
				return d.decodeString(&resp.TreeKey, "tree_key")
			case 2:
				return d.decodeBool(&resp.CacheHit, "cache_hit")
			case 3:
				return decodeSlice(&d, &resp.Results, "results", d.decodeResult)
			}
			return d.skip()
		})
	}
	if err == nil {
		err = d.end()
	}
	if err != nil {
		return nil, err
	}
	return resp, nil
}

func (d *decoder) decodeResult(r *CycleResultJSON) error {
	if null, err := d.null(); null || err != nil {
		return err
	}
	if d.peek() != '{' {
		return d.typeError("results", "object")
	}
	return d.object(func(key []byte) error {
		switch field(key, resultKeys) {
		case 0:
			return d.decodeFloat(&r.Utility, "utility")
		case 1:
			return decodeInt(d, &r.Makespan, "makespan")
		case 2:
			return decodeInt(d, &r.FinalNode, "final_node")
		case 3:
			return decodeInt(d, &r.Switches, "switches")
		case 4:
			return decodeInt(d, &r.Recoveries, "recoveries")
		case 5:
			return decodeInt(d, &r.FaultsConsumed, "faults_consumed")
		case 6:
			return decodeSlice(d, &r.HardViolations, "hard_violations", func(v *int) error {
				return decodeInt(d, v, "hard_violations")
			})
		case 7:
			return d.decodeFloat(&r.Energy, "energy")
		}
		return d.skip()
	})
}

// AppendDispatchRequest appends the JSON encoding of req to dst, byte for
// byte what json.Marshal(req) produces. It fails where json.Marshal does:
// on a NaN or infinite float, or an App that is not one valid JSON value.
func AppendDispatchRequest(dst []byte, req *DispatchRequest) ([]byte, error) {
	n := 128 + len(req.TreeKey) + len(req.App)
	for _, c := range req.Cycles {
		n += 32 + 5*len(c.Durations) + 2*len(c.FaultsAt) // 3-digit durations, 1-digit faults
	}
	dst = slices.Grow(dst, n)
	orig := len(dst)
	dst = append(dst, `{"format":`...)
	dst = appendString(dst, req.Format)
	if req.TreeKey != "" {
		dst = append(dst, `,"tree_key":`...)
		dst = appendString(dst, req.TreeKey)
	}
	var err error
	if len(req.App) != 0 {
		dst = append(dst, `,"app":`...)
		if dst, err = appendCompact(dst, req.App); err != nil {
			return dst[:orig], err
		}
	}
	if o := req.Options; o != nil {
		dst = append(dst, `,"options":{"m":`...)
		dst = strconv.AppendInt(dst, int64(o.M), 10)
		dst = appendOmitInt(dst, `,"sweep_samples":`, o.SweepSamples)
		if o.MinGain != 0 {
			dst = append(dst, `,"min_gain":`...)
			if dst, err = appendFloat(dst, o.MinGain); err != nil {
				return dst[:orig], err
			}
		}
		dst = appendOmitInt(dst, `,"eval_scenarios":`, o.EvalScenarios)
		if o.DisableRevival {
			dst = append(dst, `,"disable_revival":true`...)
		}
		dst = appendOmitInt(dst, `,"workers":`, o.Workers)
		dst = append(dst, '}')
	}
	dst = append(dst, `,"cycles":`...)
	if req.Cycles == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, c := range req.Cycles {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"durations":`...)
			dst = appendInts(dst, c.Durations)
			if len(c.FaultsAt) != 0 {
				dst = append(dst, `,"faults_at":`...)
				dst = appendInts(dst, c.FaultsAt)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = appendOmitInt(dst, `,"workers":`, req.Workers)
	return append(dst, '}'), nil
}

// AppendDispatchResponse appends the JSON encoding of resp to dst, byte
// for byte what json.NewEncoder(w).Encode(resp) writes, trailing newline
// included. It fails, as the encoder does, on a NaN or infinite float.
func AppendDispatchResponse(dst []byte, resp *DispatchResponse) ([]byte, error) {
	orig := len(dst)
	dst = append(dst, `{"format":`...)
	dst = appendString(dst, resp.Format)
	dst = append(dst, `,"tree_key":`...)
	dst = appendString(dst, resp.TreeKey)
	dst = append(dst, `,"cache_hit":`...)
	dst = strconv.AppendBool(dst, resp.CacheHit)
	dst = append(dst, `,"results":`...)
	if resp.Results == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		var err error
		for i := range resp.Results {
			r := &resp.Results[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"utility":`...)
			if dst, err = appendFloat(dst, r.Utility); err != nil {
				return dst[:orig], err
			}
			dst = append(dst, `,"makespan":`...)
			dst = strconv.AppendInt(dst, int64(r.Makespan), 10)
			dst = append(dst, `,"final_node":`...)
			dst = strconv.AppendInt(dst, int64(r.FinalNode), 10)
			dst = append(dst, `,"switches":`...)
			dst = strconv.AppendInt(dst, int64(r.Switches), 10)
			dst = append(dst, `,"recoveries":`...)
			dst = strconv.AppendInt(dst, int64(r.Recoveries), 10)
			dst = append(dst, `,"faults_consumed":`...)
			dst = strconv.AppendInt(dst, int64(r.FaultsConsumed), 10)
			if len(r.HardViolations) != 0 {
				dst = append(dst, `,"hard_violations":`...)
				dst = appendInts(dst, r.HardViolations)
			}
			dst = append(dst, `,"energy":`...)
			if dst, err = appendFloat(dst, r.Energy); err != nil {
				return dst[:orig], err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...), nil
}

func appendOmitInt(dst []byte, key string, v int) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), int64(v), 10)
}

func appendInts[T int | model.Time](dst []byte, vs []T) []byte {
	if vs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, ']')
}

// appendFloat formats f as encoding/json does: like ES6 number-to-string,
// exponent form only below 1e-6 or from 1e21, without exponent padding.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("serveapi: unsupported float value %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		// e-09 → e-9
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json does with
// HTML escaping on: <, > and & become \u00XX, invalid UTF-8 becomes
// \ufffd, and U+2028/U+2029 are escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && n == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += n
			continue
		}
		i += n
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendCompact appends the raw JSON value src with insignificant
// whitespace removed and HTML-sensitive characters escaped — what
// encoding/json does to a json.RawMessage it marshals.
func appendCompact(dst, src []byte) ([]byte, error) {
	d := decoder{data: src}
	if err := d.skip(); err != nil {
		return dst, err
	}
	if err := d.end(); err != nil {
		return dst, err
	}
	inString := false
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case !inString:
			switch c {
			case ' ', '\t', '\n', '\r':
				continue
			case '"':
				inString = true
			}
		case c == '\\':
			dst = append(dst, c)
			i++
			c = src[i]
		case c == '"':
			inString = false
		case c == '<' || c == '>' || c == '&':
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			continue
		case c == 0xE2 && i+2 < len(src) && src[i+1] == 0x80 && src[i+2]&^1 == 0xA8:
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[src[i+2]&0xF])
			i += 2
			continue
		}
		dst = append(dst, c)
	}
	return dst, nil
}
