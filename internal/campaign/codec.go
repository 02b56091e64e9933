package campaign

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"math"
	"sort"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"goofi/internal/faultmodel"
	"goofi/internal/trigger"
)

// This file hand-rolls the JSON codec for the two BLOBs of every
// LoggedSystemState row — experimentData and stateVector. Appending
// directly into one buffer avoids the reflection walk that dominated the
// insert profile, and decoding with a cursor over the blob avoids the one
// that dominated analysis. Field names and omitempty behaviour mirror the
// struct tags, so the output is plain JSON that json.Unmarshal reads back
// to the same value (invalid UTF-8 in strings reads back as U+FFFD). It
// is not byte for byte json.Marshal's:
//   - state-vector output ports are in numeric order, where encoding/json
//     sorts them as strings ("9" before "10" here, "10" first there);
//   - strings keep <, >, &, U+2028, U+2029 and invalid UTF-8 raw and
//     write \b and \f as \u0008 and \u000c, where json.Marshal escapes
//     or replaces them;
//   - activeProb uses strconv's shortest 'g' form (1e-07, not 1e-7).
//
// The stored bytes are the record contract — record digests and
// shard-vs-solo identity compare them — so these differences stay. The
// decoders accept both forms and keys in any order. The property tests
// and FuzzDecodeRecord in codec_test.go check both directions against
// encoding/json.

const jsonHex = "0123456789abcdef"

// appendJSONString appends a JSON-quoted string. Control characters are
// escaped; valid UTF-8 passes through unescaped, which json.Unmarshal
// accepts.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '"' && c != '\\' && c >= 0x20 {
			continue
		}
		buf = append(buf, s[start:i]...)
		switch c {
		case '"':
			buf = append(buf, '\\', '"')
		case '\\':
			buf = append(buf, '\\', '\\')
		case '\n':
			buf = append(buf, '\\', 'n')
		case '\r':
			buf = append(buf, '\\', 'r')
		case '\t':
			buf = append(buf, '\\', 't')
		default:
			buf = append(buf, '\\', 'u', '0', '0', jsonHex[c>>4], jsonHex[c&0xf])
		}
		start = i + 1
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

// appendJSONBytes appends a []byte the way encoding/json does: base64 in
// a string, or null for a nil slice.
func appendJSONBytes(buf []byte, b []byte) []byte {
	if b == nil {
		return append(buf, "null"...)
	}
	buf = append(buf, '"')
	buf = base64.StdEncoding.AppendEncode(buf, b)
	return append(buf, '"')
}

func appendTriggerSpec(buf []byte, s *trigger.Spec) []byte {
	buf = append(buf, `{"kind":`...)
	buf = appendJSONString(buf, s.Kind)
	if s.Cycle != 0 {
		buf = append(buf, `,"cycle":`...)
		buf = strconv.AppendUint(buf, s.Cycle, 10)
	}
	if s.Count != 0 {
		buf = append(buf, `,"count":`...)
		buf = strconv.AppendUint(buf, s.Count, 10)
	}
	if s.Addr != 0 {
		buf = append(buf, `,"addr":`...)
		buf = strconv.AppendUint(buf, uint64(s.Addr), 10)
	}
	if s.Occurrence != 0 {
		buf = append(buf, `,"occurrence":`...)
		buf = strconv.AppendInt(buf, int64(s.Occurrence), 10)
	}
	if s.Write {
		buf = append(buf, `,"write":true`...)
	}
	if s.Period != 0 {
		buf = append(buf, `,"period":`...)
		buf = strconv.AppendUint(buf, s.Period, 10)
	}
	return append(buf, '}')
}

func appendOutcome(buf []byte, o *Outcome) []byte {
	buf = append(buf, `{"status":`...)
	buf = appendJSONString(buf, string(o.Status))
	if o.Mechanism != "" {
		buf = append(buf, `,"mechanism":`...)
		buf = appendJSONString(buf, o.Mechanism)
	}
	if o.DetectionCycle != 0 {
		buf = append(buf, `,"detectionCycle":`...)
		buf = strconv.AppendUint(buf, o.DetectionCycle, 10)
	}
	buf = append(buf, `,"cycles":`...)
	buf = strconv.AppendUint(buf, o.Cycles, 10)
	if o.Iterations != 0 {
		buf = append(buf, `,"iterations":`...)
		buf = strconv.AppendInt(buf, int64(o.Iterations), 10)
	}
	if o.Recovered != 0 {
		buf = append(buf, `,"recovered":`...)
		buf = strconv.AppendInt(buf, int64(o.Recovered), 10)
	}
	if o.Attempts != 0 {
		buf = append(buf, `,"attempts":`...)
		buf = strconv.AppendInt(buf, int64(o.Attempts), 10)
	}
	if o.HarnessError != "" {
		buf = append(buf, `,"harnessError":`...)
		buf = appendJSONString(buf, o.HarnessError)
	}
	return append(buf, '}')
}

// appendJSON encodes an ExperimentData (see the file comment for where
// the bytes differ from json.Marshal's).
func (d *ExperimentData) appendJSON(buf []byte) []byte {
	buf = append(buf, `{"seq":`...)
	buf = strconv.AppendInt(buf, int64(d.Seq), 10)
	buf = append(buf, `,"fault":{"kind":`...)
	buf = appendJSONString(buf, string(d.Fault.Kind))
	buf = append(buf, `,"bits":`...)
	if d.Fault.Bits == nil {
		buf = append(buf, "null"...)
	} else {
		buf = append(buf, '[')
		for i, b := range d.Fault.Bits {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(b), 10)
		}
		buf = append(buf, ']')
	}
	if d.Fault.ActiveProb != 0 {
		buf = append(buf, `,"activeProb":`...)
		buf = strconv.AppendFloat(buf, d.Fault.ActiveProb, 'g', -1, 64)
	}
	buf = append(buf, '}')
	if len(d.LocationNames) > 0 {
		buf = append(buf, `,"locationNames":[`...)
		for i, n := range d.LocationNames {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendJSONString(buf, n)
		}
		buf = append(buf, ']')
	}
	buf = append(buf, `,"trigger":`...)
	buf = appendTriggerSpec(buf, &d.Trigger)
	if d.InjectionCycle != 0 {
		buf = append(buf, `,"injectionCycle":`...)
		buf = strconv.AppendUint(buf, d.InjectionCycle, 10)
	}
	buf = append(buf, `,"injected":`...)
	buf = strconv.AppendBool(buf, d.Injected)
	buf = append(buf, `,"outcome":`...)
	buf = appendOutcome(buf, &d.Outcome)
	return append(buf, '}')
}

// decodeJSON is the inverse of appendJSON: it reads an experimentData
// blob into d. Keys may come in any order; see jsonReader for what it
// accepts.
func (d *ExperimentData) decodeJSON(b []byte) error {
	r := &jsonReader{b: b}
	r.object(func(key []byte) {
		switch string(key) {
		case "seq":
			d.Seq = r.signed()
		case "fault":
			r.object(func(key []byte) {
				switch string(key) {
				case "kind":
					d.Fault.Kind = faultmodel.Kind(r.str())
				case "bits":
					d.Fault.Bits = readArray(r, r.signed)
				case "activeProb":
					d.Fault.ActiveProb = r.float()
				default:
					r.unknown(key)
				}
			})
		case "locationNames":
			d.LocationNames = readArray(r, r.str)
			if d.LocationNames != nil && len(d.LocationNames) == 0 {
				r.fail("empty locationNames")
			}
		case "trigger":
			decodeTriggerSpec(r, &d.Trigger)
		case "injectionCycle":
			d.InjectionCycle = r.unsigned(math.MaxUint64)
		case "injected":
			d.Injected = r.boolean()
		case "outcome":
			decodeOutcome(r, &d.Outcome)
		default:
			r.unknown(key)
		}
	})
	return r.end()
}

func decodeTriggerSpec(r *jsonReader, s *trigger.Spec) {
	r.object(func(key []byte) {
		switch string(key) {
		case "kind":
			s.Kind = r.str()
		case "cycle":
			s.Cycle = r.unsigned(math.MaxUint64)
		case "count":
			s.Count = r.unsigned(math.MaxUint64)
		case "addr":
			s.Addr = uint32(r.unsigned(math.MaxUint32))
		case "occurrence":
			s.Occurrence = r.signed()
		case "write":
			s.Write = r.boolean()
		case "period":
			s.Period = r.unsigned(math.MaxUint64)
		default:
			r.unknown(key)
		}
	})
}

func decodeOutcome(r *jsonReader, o *Outcome) {
	r.object(func(key []byte) {
		switch string(key) {
		case "status":
			o.Status = OutcomeStatus(r.str())
		case "mechanism":
			o.Mechanism = r.str()
		case "detectionCycle":
			o.DetectionCycle = r.unsigned(math.MaxUint64)
		case "cycles":
			o.Cycles = r.unsigned(math.MaxUint64)
		case "iterations":
			o.Iterations = r.signed()
		case "recovered":
			o.Recovered = r.signed()
		case "attempts":
			o.Attempts = r.signed()
		case "harnessError":
			o.HarnessError = r.str()
		default:
			r.unknown(key)
		}
	})
}

// appendJSON encodes a StateVector. Memory keys are sorted as strings
// and output ports numerically, keeping the encoding deterministic —
// experiment reproduction compares these bytes. The port order is where
// the bytes differ from json.Marshal's, which sorts ports as strings;
// memory keys are escaped like every appended string.
func (s *StateVector) appendJSON(buf []byte) []byte {
	buf = append(buf, '{')
	first := true
	if len(s.Scan) > 0 {
		buf = append(buf, `"scan":`...)
		buf = appendJSONBytes(buf, s.Scan)
		first = false
	}
	if len(s.Memory) > 0 {
		if !first {
			buf = append(buf, ',')
		}
		first = false
		buf = append(buf, `"memory":{`...)
		keys := make([]string, 0, len(s.Memory))
		for k := range s.Memory {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendJSONString(buf, k)
			buf = append(buf, ':')
			buf = appendJSONBytes(buf, s.Memory[k])
		}
		buf = append(buf, '}')
	}
	if len(s.Outputs) > 0 {
		if !first {
			buf = append(buf, ',')
		}
		buf = append(buf, `"outputs":{`...)
		ports := make([]int, 0, len(s.Outputs))
		for p := range s.Outputs {
			ports = append(ports, int(p))
		}
		sort.Ints(ports)
		for i, p := range ports {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, '"')
			buf = strconv.AppendInt(buf, int64(p), 10)
			buf = append(buf, '"', ':')
			vs := s.Outputs[uint16(p)]
			if vs == nil {
				buf = append(buf, "null"...)
				continue
			}
			buf = append(buf, '[')
			for j, v := range vs {
				if j > 0 {
					buf = append(buf, ',')
				}
				buf = strconv.AppendUint(buf, uint64(v), 10)
			}
			buf = append(buf, ']')
		}
		buf = append(buf, '}')
	}
	return append(buf, '}')
}

// decodeJSON is the inverse of appendJSON: it reads a stateVector blob
// into s. Keys and ports may come in any order; see jsonReader for what
// it accepts. As in encoding/json, a repeated memory or outputs key adds
// to the map already read.
func (s *StateVector) decodeJSON(b []byte) error {
	r := &jsonReader{b: b}
	r.object(func(key []byte) {
		switch string(key) {
		case "scan":
			s.Scan = r.blob()
			if s.Scan != nil && len(s.Scan) == 0 {
				r.fail("empty scan")
			}
		case "memory":
			if s.Memory == nil {
				s.Memory = map[string][]byte{}
			}
			if r.object(func(key []byte) { s.Memory[string(key)] = r.blob() }) == 0 {
				r.fail("empty memory")
			}
		case "outputs":
			if s.Outputs == nil {
				s.Outputs = map[uint16][]uint32{}
			}
			value := func() uint32 { return uint32(r.unsigned(math.MaxUint32)) }
			if r.object(func(key []byte) {
				kr := jsonReader{b: key}
				port := uint16(kr.unsigned(math.MaxUint16))
				if kr.end() != nil {
					r.fail(fmt.Sprintf("bad output port %q", key))
					return
				}
				s.Outputs[port] = readArray(r, value)
			}) == 0 {
				r.fail("empty outputs")
			}
		default:
			r.unknown(key)
		}
	})
	return r.end()
}

// jsonReader is the decode side of the appenders: a cursor over one blob
// that reads the compact JSON they write. It is stricter than
// encoding/json — it rejects whitespace, unknown keys, trailing bytes,
// leading zeros, integers out of their field's range, and empty values
// for fields the appenders omit when empty — and on everything it
// accepts it agrees with json.Unmarshal. The first error sticks: later
// reads return zero values, and the caller checks end() once.
type jsonReader struct {
	b   []byte
	i   int
	err error
}

func (r *jsonReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%s at offset %d", what, r.i)
	}
}

func (r *jsonReader) unknown(key []byte) { r.fail(fmt.Sprintf("unknown key %q", key)) }

// end returns the first error, or an error if bytes follow the value.
func (r *jsonReader) end() error {
	if r.err == nil && r.i != len(r.b) {
		r.fail("trailing data")
	}
	return r.err
}

// consume advances past c if it is the next byte.
func (r *jsonReader) consume(c byte) bool {
	if r.err == nil && r.i < len(r.b) && r.b[r.i] == c {
		r.i++
		return true
	}
	return false
}

// literal advances past s if it comes next.
func (r *jsonReader) literal(s string) bool {
	if r.err == nil && len(r.b)-r.i >= len(s) && string(r.b[r.i:r.i+len(s)]) == s {
		r.i += len(s)
		return true
	}
	return false
}

// object reads a JSON object, calling field with each key and the cursor
// on its value. It returns the number of keys read.
func (r *jsonReader) object(field func(key []byte)) int {
	if !r.consume('{') {
		r.fail("expected object")
		return 0
	}
	if r.consume('}') {
		return 0
	}
	n := 0
	for r.err == nil {
		key := r.stringBytes()
		if !r.consume(':') {
			r.fail("expected ':'")
			break
		}
		field(key)
		n++
		if !r.consume(',') {
			if !r.consume('}') {
				r.fail("expected ',' or '}'")
			}
			break
		}
	}
	return n
}

// readArray reads a JSON array of elem values. As in encoding/json, null
// reads as a nil slice and [] as an empty non-nil one.
func readArray[T any](r *jsonReader, elem func() T) []T {
	if r.literal("null") {
		return nil
	}
	if !r.consume('[') {
		r.fail("expected array")
		return nil
	}
	if r.consume(']') {
		return []T{}
	}
	// Commas before the first ']' size a number array exactly; for a
	// string array they are only a hint.
	rest := r.b[r.i:]
	if j := bytes.IndexByte(rest, ']'); j >= 0 {
		rest = rest[:j]
	}
	vs := make([]T, 0, bytes.Count(rest, []byte{','})+1)
	for r.err == nil {
		vs = append(vs, elem())
		if !r.consume(',') {
			if !r.consume(']') {
				r.fail("expected ',' or ']'")
			}
			break
		}
	}
	return vs
}

// unsigned reads a non-negative JSON integer no larger than max.
func (r *jsonReader) unsigned(max uint64) uint64 {
	if r.err != nil {
		return 0
	}
	// Locals, not r's fields, keep the digit loop in registers; constant
	// bounds keep it to one overflow compare per digit.
	b, start := r.b, r.i
	i, n := start, uint64(0)
	for ; i < len(b); i++ {
		c := uint64(b[i] - '0')
		if c > 9 {
			break
		}
		if n > (math.MaxUint64-9)/10 && (n > math.MaxUint64/10 || n*10 > math.MaxUint64-c) {
			r.fail("number out of range")
			return 0
		}
		n = n*10 + c
	}
	r.i = i
	switch {
	case i == start:
		r.fail("expected integer")
	case b[start] == '0' && i > start+1:
		r.fail("leading zero")
	case n > max:
		r.fail("number out of range")
	}
	return n
}

// signed reads a JSON integer in the range of int.
func (r *jsonReader) signed() int {
	if r.consume('-') {
		return int(-r.unsigned(uint64(math.MaxInt) + 1))
	}
	return int(r.unsigned(math.MaxInt))
}

// float reads a JSON number and parses it as encoding/json does.
func (r *jsonReader) float() float64 {
	start := r.i
	r.consume('-')
	if !r.consume('0') && r.digits() == 0 {
		r.fail("expected number")
		return 0
	}
	if r.consume('.') && r.digits() == 0 {
		r.fail("expected digit")
	}
	if r.consume('e') || r.consume('E') {
		_ = r.consume('+') || r.consume('-')
		if r.digits() == 0 {
			r.fail("expected digit")
		}
	}
	if r.err != nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(r.b[start:r.i]), 64)
	if err != nil {
		r.fail("number out of range")
	}
	return f
}

// digits skips a run of decimal digits and returns its length.
func (r *jsonReader) digits() int {
	start := r.i
	for r.err == nil && r.i < len(r.b) && '0' <= r.b[r.i] && r.b[r.i] <= '9' {
		r.i++
	}
	return r.i - start
}

func (r *jsonReader) boolean() bool {
	switch {
	case r.literal("true"):
		return true
	case r.literal("false"):
		return false
	}
	r.fail("expected boolean")
	return false
}

func (r *jsonReader) str() string { return string(r.stringBytes()) }

// blob reads a []byte the way encoding/json does: a base64 (StdEncoding)
// string, or null for a nil slice.
func (r *jsonReader) blob() []byte {
	if r.literal("null") {
		return nil
	}
	s := r.stringBytes()
	if r.err != nil {
		return nil
	}
	b := make([]byte, base64.StdEncoding.DecodedLen(len(s)))
	n, err := base64.StdEncoding.Decode(b, s)
	if err != nil {
		r.fail("bad base64")
		return nil
	}
	return b[:n]
}

// stringBytes reads a JSON string. One without escapes or invalid UTF-8
// — everything the appenders write — comes back as a subslice of the
// blob; any other is unquoted into a new buffer.
func (r *jsonReader) stringBytes() []byte {
	if !r.consume('"') {
		r.fail("expected string")
		return nil
	}
	start, plain := r.i, true
	for r.i < len(r.b) {
		switch c := r.b[r.i]; {
		case c == '"':
			s := r.b[start:r.i]
			r.i++
			if plain {
				return s
			}
			return unquote(s)
		case c == '\\':
			n := escapeLen(r.b[r.i:])
			if n == 0 {
				r.fail("bad escape")
				return nil
			}
			plain = false
			r.i += n
		case c < 0x20:
			r.fail("control character in string")
			return nil
		case c < utf8.RuneSelf:
			r.i++
		default:
			rn, size := utf8.DecodeRune(r.b[r.i:])
			if rn == utf8.RuneError && size == 1 {
				plain = false
			}
			r.i += size
		}
	}
	r.fail("unterminated string")
	return nil
}

// escapeLen returns the length of the JSON escape sequence at the start
// of b, or 0 if it is not a valid one.
func escapeLen(b []byte) int {
	if len(b) < 2 {
		return 0
	}
	switch b[1] {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		return 2
	case 'u':
		if getu4(b) >= 0 {
			return 6
		}
	}
	return 0
}

// unquote decodes the body of a string stringBytes has checked, exactly
// as encoding/json does: invalid UTF-8 bytes and unpaired surrogates
// become U+FFFD.
func unquote(s []byte) []byte {
	b := make([]byte, 0, len(s)+2*utf8.UTFMax)
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c == '\\':
			switch s[i+1] {
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
				rn := getu4(s[i:])
				i += 6
				if utf16.IsSurrogate(rn) {
					if dec := utf16.DecodeRune(rn, getu4(s[i:])); dec != unicode.ReplacementChar {
						b = utf8.AppendRune(b, dec)
						i += 6
						continue
					}
					rn = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rn)
				continue
			default: // '"', '\\' or '/'
				b = append(b, s[i+1])
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			rn, size := utf8.DecodeRune(s[i:])
			b = utf8.AppendRune(b, rn)
			i += size
		}
	}
	return b
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}
