package campaign

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"goofi/internal/faultmodel"
	"goofi/internal/sqldb"
	"goofi/internal/trigger"
)

// The hand-rolled codec in codec.go is checked against encoding/json as
// the reference: whatever the appenders emit must carry the same JSON as
// json.Marshal's output, and the hand decoders must read both encodings
// to exactly what json.Unmarshal reads from the same bytes.

// codecStrings are the awkward strings the generators draw from: JSON
// escapes, the <>& and U+2028 that json.Marshal escapes as \u003c etc.,
// invalid UTF-8 (json.Marshal writes U+FFFD; the appenders copy the raw
// bytes, which both decoders read back as U+FFFD) and a control byte.
var codecStrings = []string{
	"", "watchdog", `odd "name"` + "\n\ttab", "a<b>&c", "line\u2028sep\u2029",
	"bad\xffutf8\xc3", "ctl\x01", `back\slash/`, "é€𝄞",
}

func randString(rng *rand.Rand) string { return codecStrings[rng.Intn(len(codecStrings))] }

func randExperimentData(rng *rand.Rand) *ExperimentData {
	kinds := []faultmodel.Kind{faultmodel.Transient, faultmodel.Intermittent, faultmodel.StuckAt0}
	d := &ExperimentData{
		Seq:   rng.Intn(2000) - 5,
		Fault: faultmodel.Fault{Kind: kinds[rng.Intn(len(kinds))]},
		Trigger: trigger.Spec{
			Kind:       []string{"cycle", "breakpoint", "data-access"}[rng.Intn(3)],
			Cycle:      uint64(rng.Intn(10000)),
			Occurrence: rng.Intn(3),
		},
		InjectionCycle: uint64(rng.Intn(3)) * 7919,
		Injected:       rng.Intn(2) == 0,
		Outcome: Outcome{
			Status:       OutcomeStatus([]string{"detected", "escaped", "latent", ""}[rng.Intn(4)]),
			Mechanism:    randString(rng),
			Cycles:       uint64(rng.Intn(1 << 30)),
			Iterations:   rng.Intn(4),
			Recovered:    rng.Intn(3),
			Attempts:     rng.Intn(4),
			HarnessError: randString(rng),
		},
	}
	switch rng.Intn(5) {
	case 0: // nil bits: "bits":null
	case 1:
		d.Fault.Bits = []int{} // "bits":[]
	default:
		d.Fault.Bits = make([]int, rng.Intn(4)+1)
		for i := range d.Fault.Bits {
			d.Fault.Bits[i] = rng.Intn(512)
		}
	}
	if rng.Intn(2) == 0 {
		// Includes values that format with an exponent (1e-07).
		d.Fault.ActiveProb = []float64{float64(rng.Intn(100)) / 101, 1e-07, 2.5e-12, 1}[rng.Intn(4)]
	}
	if rng.Intn(3) == 0 {
		d.LocationNames = []string{"cpu.r1", "dcache.line\x01ctl", randString(rng)}[:rng.Intn(3)+1]
	}
	if rng.Intn(3) == 0 {
		d.Outcome.DetectionCycle = uint64(rng.Intn(100000))
	}
	if rng.Intn(4) == 0 {
		d.Trigger.Addr = rng.Uint32()
		d.Trigger.Write = rng.Intn(2) == 0
		d.Trigger.Count = rng.Uint64()
		d.Trigger.Period = uint64(rng.Intn(500))
	}
	return d
}

func randStateVector(rng *rand.Rand) *StateVector {
	s := &StateVector{}
	if rng.Intn(4) > 0 {
		s.Scan = make([]byte, rng.Intn(40)+1)
		rng.Read(s.Scan)
	}
	if rng.Intn(4) > 0 {
		s.Memory = map[string][]byte{}
		keys := []string{"x", "result", "buf2", "z\"q", "<a&b>", "u\u2028", "bad\xff", ""}
		for i := 0; i < rng.Intn(4)+1; i++ {
			var b []byte // a nil value encodes as null
			if rng.Intn(5) > 0 {
				b = make([]byte, rng.Intn(16))
				rng.Read(b)
			}
			s.Memory[keys[rng.Intn(len(keys))]] = b
		}
	}
	if rng.Intn(4) > 0 {
		s.Outputs = map[uint16][]uint32{}
		for i := 0; i < rng.Intn(3)+1; i++ {
			var vs []uint32 // nil encodes as null, next to empty ones as []
			switch n := rng.Intn(6); {
			case n == 0:
			case n == 1 && rng.Intn(4) == 0:
				vs = make([]uint32, 4000) // a pid-long-sized output port
			default:
				vs = make([]uint32, rng.Intn(5))
			}
			for j := range vs {
				vs[j] = rng.Uint32()
			}
			s.Outputs[[]uint16{0, 1, 9, 10, 65535, uint16(rng.Intn(1 << 16))}[rng.Intn(6)]] = vs
		}
	}
	return s
}

// genericEqual compares two JSON encodings structurally (field order and
// number formatting independent).
func genericEqual(t *testing.T, a, b []byte) bool {
	t.Helper()
	var ga, gb any
	if err := json.Unmarshal(a, &ga); err != nil {
		t.Fatalf("custom encoding is not valid JSON: %v\n%s", err, a)
	}
	if err := json.Unmarshal(b, &gb); err != nil {
		t.Fatal(err)
	}
	return reflect.DeepEqual(ga, gb)
}

// decodesLikeJSON decodes b with the hand decoder and with json.Unmarshal
// and reports whether both accept it with DeepEqual results.
func decodesLikeJSON[T any](t *testing.T, b []byte, decode func(*T, []byte) error) (*T, bool) {
	t.Helper()
	var hand, ref T
	if err := decode(&hand, b); err != nil {
		t.Logf("hand decoder rejects %s: %v", b, err)
		return nil, false
	}
	if err := json.Unmarshal(b, &ref); err != nil {
		t.Logf("encoding/json rejects %s: %v", b, err)
		return nil, false
	}
	if !reflect.DeepEqual(&hand, &ref) {
		t.Logf("decoders differ on %s\nhand: %#v\njson: %#v", b, hand, ref)
		return nil, false
	}
	return &hand, true
}

func TestCodecExperimentDataMatchesEncodingJSON(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randExperimentData(rng)
		custom := d.appendJSON(nil)
		std, err := json.Marshal(d)
		if err != nil {
			return false
		}
		if !genericEqual(t, custom, std) {
			t.Logf("custom: %s\nstd:    %s", custom, std)
			return false
		}
		fromCustom, ok := decodesLikeJSON(t, custom, (*ExperimentData).decodeJSON)
		if !ok {
			return false
		}
		fromStd, ok := decodesLikeJSON(t, std, (*ExperimentData).decodeJSON)
		return ok && reflect.DeepEqual(fromCustom, fromStd)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCodecStateVectorMatchesEncodingJSON(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randStateVector(rng)
		custom, err := s.Encode()
		if err != nil {
			return false
		}
		std, err := json.Marshal(s)
		if err != nil {
			return false
		}
		if !genericEqual(t, custom, std) {
			t.Logf("custom: %s\nstd:    %s", custom, std)
			return false
		}
		fromCustom, ok := decodesLikeJSON(t, custom, (*StateVector).decodeJSON)
		if !ok {
			return false
		}
		fromStd, ok := decodesLikeJSON(t, std, (*StateVector).decodeJSON)
		return ok && reflect.DeepEqual(fromCustom, fromStd)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCodecStateVectorEmpty pins exact stored bytes. Output ports are
// written in numeric order, where json.Marshal sorts them as strings
// ("10" before "9"); the decoder reads both orders.
func TestCodecStateVectorEmpty(t *testing.T) {
	for _, tc := range []struct {
		name string
		sv   StateVector
		want string
	}{
		{"empty", StateVector{}, `{}`},
		{"numeric port order", StateVector{Outputs: map[uint16][]uint32{10: {2}, 9: {1}}},
			`{"outputs":{"9":[1],"10":[2]}}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := tc.sv.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != tc.want {
				t.Errorf("encoded as %s, want %s", b, tc.want)
			}
			std, err := json.Marshal(&tc.sv)
			if err != nil {
				t.Fatal(err)
			}
			for _, enc := range [][]byte{b, std} {
				got, err := DecodeStateVector(enc)
				if err != nil {
					t.Fatalf("decode %s: %v", enc, err)
				}
				if !reflect.DeepEqual(*got, tc.sv) {
					t.Errorf("decode %s = %#v, want %#v", enc, *got, tc.sv)
				}
			}
		})
	}
}

// TestCodecRejectsMalformed feeds malformed blobs through the row decoder
// used by every store read; each must fail with the blob's error prefix.
func TestCodecRejectsMalformed(t *testing.T) {
	const (
		dataPrefix  = "campaign: unmarshal experiment data: "
		statePrefix = "campaign: decode state vector: "
	)
	data := string((&ExperimentData{Seq: 3, Fault: faultmodel.Fault{Kind: "transient", Bits: []int{1}}}).appendJSON(nil))
	for _, tc := range []struct {
		name, data, state, prefix string
	}{
		{"truncated data", data[:len(data)-3], `{}`, dataPrefix},
		{"truncated state", data, `{"outputs":{"1":[1,2`, statePrefix},
		{"truncated string", data, `{"scan":"AQ==`, statePrefix},
		{"empty blob", "", `{}`, dataPrefix},
		{"trailing data", data + "}", `{}`, dataPrefix},
		{"trailing state", data, `{}{}`, statePrefix},
		{"unknown key", `{"seq":1,"sequence":2}`, `{}`, dataPrefix},
		{"unknown state key", data, `{"scan":"AQ==","extra":1}`, statePrefix},
		{"port 65536", data, `{"outputs":{"65536":[1]}}`, statePrefix},
		{"port not a number", data, `{"outputs":{"p1":[1]}}`, statePrefix},
		{"output 4294967296", data, `{"outputs":{"1":[4294967296]}}`, statePrefix},
		{"addr 4294967296", `{"trigger":{"kind":"breakpoint","addr":4294967296}}`, `{}`, dataPrefix},
		{"seq overflow", `{"seq":9223372036854775808}`, `{}`, dataPrefix},
		{"leading zero", `{"seq":01}`, `{}`, dataPrefix},
		{"leading zero output", data, `{"outputs":{"1":[01]}}`, statePrefix},
		{"fraction in integer", `{"seq":1.5}`, `{}`, dataPrefix},
		{"negative unsigned", `{"injectionCycle":-1}`, `{}`, dataPrefix},
		{"bad float", `{"fault":{"kind":"intermittent","activeProb":.5}}`, `{}`, dataPrefix},
		{"float out of range", `{"fault":{"kind":"intermittent","activeProb":1e400}}`, `{}`, dataPrefix},
		{"bad base64", data, `{"scan":"AQ="}`, statePrefix},
		{"bad base64 alphabet", data, `{"memory":{"x":"A*=="}}`, statePrefix},
		{"space after brace", data, `{ "scan":"AQ=="}`, statePrefix},
		{"space after colon", `{"seq": 1}`, `{}`, dataPrefix},
		{"trailing newline", data + "\n", `{}`, dataPrefix},
		{"string for int", `{"seq":"1"}`, `{}`, dataPrefix},
		{"int for bool", `{"injected":1}`, `{}`, dataPrefix},
		{"null for string", `{"outcome":{"status":null}}`, `{}`, dataPrefix},
		{"null blob", "null", `{}`, dataPrefix},
		{"bad escape", `{"outcome":{"status":"a\x"}}`, `{}`, dataPrefix},
		{"short unicode escape", `{"outcome":{"status":"\u12"}}`, `{}`, dataPrefix},
		{"control byte in string", "{\"outcome\":{\"status\":\"a\x01\"}}", `{}`, dataPrefix},
		{"empty memory", data, `{"memory":{}}`, statePrefix},
		{"empty scan", data, `{"scan":""}`, statePrefix},
	} {
		t.Run(tc.name, func(t *testing.T) {
			row := []sqldb.Value{sqldb.Text("c/exp00000"), sqldb.Null(), sqldb.Text("c"), sqldb.Int(-1),
				sqldb.Blob([]byte(tc.data)), sqldb.Blob([]byte(tc.state))}
			rec, err := decodeExperimentRow(row)
			if err == nil {
				t.Fatalf("accepted: %+v", rec)
			}
			if !strings.HasPrefix(err.Error(), tc.prefix) {
				t.Errorf("error %q lacks prefix %q", err, tc.prefix)
			}
		})
	}
}

// FuzzDecodeRecord runs arbitrary bytes through both hand decoders. They
// must never panic; whatever they accept, encoding/json must accept with
// a DeepEqual result; and re-encoding a decoded value must decode back to
// the same value. Seeds are appender output plus json.Marshal's encoding
// of the same values, which brings in its \u escapes.
func FuzzDecodeRecord(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 24; i++ {
		d, s := randExperimentData(rng), randStateVector(rng)
		dStd, _ := json.Marshal(d)
		sStd, _ := json.Marshal(s)
		for _, seed := range [][]byte{d.appendJSON(nil), s.appendJSON(nil), dStd, sStd} {
			if len(seed) <= 2048 {
				f.Add(seed)
			}
		}
	}
	f.Add([]byte(`{"memory":{"\ud834\udd1e\ud800x\udc00":"AQ=="},"outputs":{"\u0039":[1],"10":null}}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		checkFuzzDecode(t, b, (*ExperimentData).decodeJSON, (*ExperimentData).appendJSON)
		checkFuzzDecode(t, b, (*StateVector).decodeJSON, (*StateVector).appendJSON)
	})
}

func checkFuzzDecode[T any](t *testing.T, b []byte, decode func(*T, []byte) error, encode func(*T, []byte) []byte) {
	t.Helper()
	var probe T
	if decode(&probe, b) != nil {
		return
	}
	hand, ok := decodesLikeJSON(t, b, decode)
	if !ok {
		t.Fatalf("hand decoder accepts %q; encoding/json disagrees", b)
	}
	again := encode(hand, nil)
	back, ok := decodesLikeJSON(t, again, decode)
	if !ok || !reflect.DeepEqual(back, hand) {
		t.Fatalf("re-encoding %q as %q does not decode back to the same value", b, again)
	}
}
