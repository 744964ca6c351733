package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"tipsy/internal/wan"
)

// A verdict is what DecodeRequest and its oracle make of a body.
type verdict int

const (
	ok       verdict = iota // accepted, and decoded as json.Unmarshal decodes it
	bad                     // refused, and json.Unmarshal refuses it too
	stricter                // refused although json.Unmarshal reads it: the list in DESIGN.md §12
)

// decodeSeeds is the fuzz corpus and the table TestDecodeRequest
// walks.
var decodeSeeds = []struct {
	body string
	want verdict
}{
	// The shapes clients send.
	{`{"flows":[{"src_addr":"11.0.3.7","src_as":64512,"region":12,"service":1,"bytes":1e9}],"exclude_links":[17,4],"k":3}`, ok},
	{`{"flows":null,"exclude_links":null,"k":0}`, ok},
	{" {\t\"flows\" : [ { \"bytes\" : 12.5e-3 } , {} ] ,\r\n \"k\" : -0 } \n", ok},
	{`{}`, ok},
	{`null`, ok},
	{`{"flows":[],"exclude_links":[]}`, ok},
	// null at every position leaves the zero value.
	{`{"flows":[null,{"src_addr":null,"src_as":null,"region":null,"service":null,"bytes":null}],"exclude_links":[null,3],"k":null}`, ok},
	// Escapes in src_addr, \u pairs and lone halves included.
	{`{"flows":[{"src_addr":"1.2.3\u002e4"}]}`, ok},
	{`{"flows":[{"src_addr":"\"\\\/\b\f\n\r\t"}]}`, ok},
	{`{"flows":[{"src_addr":"\ud83d\ude00 and \uD83D alone, \ude00 too, \ud83d\u0041"}]}`, ok},
	{`{"flows":[{"src_addr":"é, €, 😀, \u0000"}]}`, ok},
	{`{"flows":[{"src_addr":"\x"}]}`, bad},
	{`{"flows":[{"src_addr":"\u12g4"}]}`, bad},
	{`{"flows":[{"src_addr":"\u123"}]}`, bad},
	{"{\"flows\":[{\"src_addr\":\"a\nb\"}]}", bad},
	{`{"flows":[{"src_addr":"unterminated}]}`, bad},
	{"{\"flows\":[{\"src_addr\":\"\xff\"}]}", stricter},     // invalid UTF-8
	{"{\"flows\":[{\"src_addr\":\"\xe2\x82\"}]}", stricter}, // truncated
	{"{\"note\":\"\xc0\xaf\"}", stricter},                   // also under an unknown key
	// Keys: case folds as in encoding/json.
	{`{"FLOWS":[{"SRC_ADDR":"1.2.3.4","Src_As":7}],"K":2,"Exclude_Links":[1]}`, ok},
	{`{"k":1,"k":2}`, stricter},
	{`{"k":1,"K":2}`, stricter},
	{`{"flows":[{"src_as":5}],"flows":[{}]}`, stricter},
	{`{"flows":[{"bytes":1,"bytes":1}]}`, stricter},
	{`{"note":1,"note":2,"k":1}`, ok}, // an unknown key may repeat
	{`{"\u006b":1}`, stricter},
	{`{"flowſ":[]}`, stricter},
	{"{\"\u212a\":1}", stricter}, // the Kelvin sign, which folds to k
	{`{"café":1}`, stricter},
	{`{"flows":[{"unknown":{"clé":1}}]}`, stricter},
	// Integers: no fraction, no exponent, in range.
	{`{"k":1.0}`, bad},
	{`{"k":1e2}`, bad},
	{`{"k":9223372036854775807}`, ok},
	{`{"k":-9223372036854775808}`, ok},
	{`{"k":9223372036854775808}`, bad},
	{`{"flows":[{"src_as":4294967295,"region":65535,"service":255}]}`, ok},
	{`{"flows":[{"src_as":4294967296}]}`, bad},
	{`{"flows":[{"region":65536}]}`, bad},
	{`{"flows":[{"service":256}]}`, bad},
	{`{"flows":[{"service":-1}]}`, bad},
	{`{"flows":[{"src_as":-0}]}`, bad},
	{`{"exclude_links":[4294967296]}`, bad},
	{`{"exclude_links":[1.5]}`, bad},
	// Floats: the whole grammar, in range.
	{`{"flows":[{"bytes":-0},{"bytes":0.0},{"bytes":1E+3},{"bytes":1.7976931348623157e308},{"bytes":5e-324},{"bytes":1e-400}]}`, ok},
	{`{"flows":[{"bytes":1e309}]}`, bad},
	{`{"flows":[{"bytes":01}]}`, bad},
	{`{"flows":[{"bytes":1.}]}`, bad},
	{`{"flows":[{"bytes":.5}]}`, bad},
	{`{"flows":[{"bytes":+1}]}`, bad},
	{`{"flows":[{"bytes":1e}]}`, bad},
	{`{"flows":[{"bytes":-}]}`, bad},
	{`{"flows":[{"bytes":0x10}]}`, bad},
	{`{"flows":[{"bytes":NaN}]}`, bad},
	{`{"flows":[{"bytes":"1"}]}`, bad},
	// Wrong types.
	{`{"flows":{}}`, bad},
	{`{"flows":[[]]}`, bad},
	{`{"flows":[1]}`, bad},
	{`{"flows":[{"src_addr":5}]}`, bad},
	{`{"k":"3"}`, bad},
	{`{"k":true}`, bad},
	{`{"exclude_links":7}`, bad},
	{`[]`, bad},
	{`7`, bad},
	{`"flows"`, bad},
	{`true`, bad},
	// Unknown fields are skipped, whatever they hold, down to a depth.
	{`{"note":"x\ny","nested":{"a":[1,2.5e3,{"b":null,"c":[true,false]}],"d":{}},"k":2,"flows":[{"tag":[[]],"bytes":2}]}`, ok},
	{`{"deep":` + strings.Repeat("[", maxSkipDepth) + strings.Repeat("]", maxSkipDepth) + `}`, ok},
	{`{"deep":` + strings.Repeat("[", maxSkipDepth+1) + strings.Repeat("]", maxSkipDepth+1) + `}`, stricter},
	{`{"deep":` + strings.Repeat("[", maxSkipDepth) + `1` + strings.Repeat("]", maxSkipDepth) + `}`, stricter},
	{`{"deep":` + strings.Repeat(`{"a":`, 100) + `1` + strings.Repeat("}", 100) + `}`, stricter},
	{`{"note":tru}`, bad},
	{`{"note":nul}`, bad},
	{`{"note":[1,]}`, bad},
	{`{"note":{"a":1,}}`, bad},
	{`{"note":{"a"}}`, bad},
	{`{"note":[1 2]}`, bad},
	// Grammar around the object, and data after it, which the
	// json.Decoder that used to read requests left unread.
	{``, bad},
	{` `, bad},
	{`{`, bad},
	{`{"flows":[{"src_addr":"1.2.3.4"}`, bad},
	{`{"k":1,}`, bad},
	{`{,"k":1}`, bad},
	{`{"k" 1}`, bad},
	{`{k:1}`, bad},
	{`{"flows":[{},]}`, bad},
	{`{"flows":[,{}]}`, bad},
	{`{"k":1} {"k":2}`, bad},
	{`{"k":1}x`, bad},
	{`{"k":1}]`, bad},
	{"{\"k\":1}\x00", bad},
	{"{\"k\":\x001}", bad},
	{`nullnull`, bad},
	{`null 1`, bad},
	{"\ufeff{}", bad},
}

// checkDecode is the decoder's contract against its oracle, on one
// body.
func checkDecode(t *testing.T, body []byte) (accepted bool) {
	t.Helper()
	var got, want Request
	if err := DecodeRequest(body, &got); err != nil {
		return false
	}
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatalf("DecodeRequest accepts %q, json.Unmarshal says %v", body, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q decodes to\n%+v, json.Unmarshal to\n%+v", body, got, want)
	}
	// What encoding/json writes for it must be accepted, and read back
	// the same.
	again, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	var back, wantBack Request
	if err := DecodeRequest(again, &back); err != nil {
		t.Fatalf("DecodeRequest refuses json.Marshal's %q: %v", again, err)
	}
	if err := json.Unmarshal(again, &wantBack); err != nil || !reflect.DeepEqual(back, wantBack) {
		t.Fatalf("%q decodes to\n%+v, json.Unmarshal to\n%+v (%v)", again, back, wantBack, err)
	}
	return true
}

func TestDecodeRequest(t *testing.T) {
	for _, seed := range decodeSeeds {
		var req Request
		oracle := json.Unmarshal([]byte(seed.body), &req) == nil
		if checkDecode(t, []byte(seed.body)) != (seed.want == ok) || oracle == (seed.want == bad) {
			t.Errorf("%q: DecodeRequest says %v, json.Unmarshal accepts: %v; want verdict %d",
				seed.body, DecodeRequest([]byte(seed.body), &req), oracle, seed.want)
		}
	}
	// A second use of the same Request starts from nothing.
	req := Request{Flows: []Flow{{SrcAS: 9}}, ExcludeLinks: []wan.LinkID{1}, K: 7}
	if err := DecodeRequest([]byte(`{"flows":[{}]}`), &req); err != nil || !reflect.DeepEqual(req, Request{Flows: []Flow{{}}}) {
		t.Errorf("reused request decodes to %+v (%v)", req, err)
	}
	// Errors say where.
	if err := DecodeRequest([]byte(`{"k":1,"k":2}`), &req); err == nil || !strings.Contains(err.Error(), "byte 11: duplicate key") {
		t.Errorf("duplicate key error: %v", err)
	}
}

// FuzzDecodeRequest: whatever DecodeRequest accepts, json.Unmarshal
// accepts and decodes to the same Request, and json.Marshal of that
// Request is accepted in turn. It is also the /v1/predict body fuzz
// target: no input may panic the decoder.
func FuzzDecodeRequest(f *testing.F) {
	for _, seed := range decodeSeeds {
		f.Add([]byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkDecode(t, body) })
}

// randomResponse draws a response that exercises every branch of the
// encoder: nil and empty slices and map, link keys of every digit
// count, the floats where encoding/json changes format, and model
// names that need escaping.
func randomResponse(rng *rand.Rand) *Response {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-7, 1e-6, 9.999999e-7, 1e-9, 1.5e-10, 1e20, 1e21, 9.99e20, -1e21, 1e22,
		5e-324, math.SmallestNonzeroFloat64 * 3, math.MaxFloat64, -math.MaxFloat64, 123456789.125, 1e9, 0.3333333333333333,
		math.Nextafter(1e-6, 0), math.Nextafter(1e21, 0), 1<<53 - 1, 1 << 53, math.Nextafter(1<<53, math.Inf(1)), sumPointOneTwo,
	}
	float := func() float64 {
		if rng.Intn(3) == 0 {
			return math.Float64frombits(rng.Uint64() &^ (1 << 62)) // any exponent below 2
		}
		return floats[rng.Intn(len(floats))]
	}
	link := func() wan.LinkID { return wan.LinkID(rng.Uint32() >> uint(rng.Intn(32))) }
	models := []string{"ensemble", "historical", "geo", "none", "", "a\"b\\c", "<&>", "tab\tnl\ncr\rbs\bff\f\x01\x1f\x7f", "é\u2028\u2029\ufffd", "\xff\xc0\xaf"}
	resp := &Response{}
	if n := rng.Intn(5); n > 0 {
		resp.Results = make([]Result, n-1)
	}
	for i := range resp.Results {
		res := &resp.Results[i]
		res.Flow, res.Model = rng.Intn(1000)-1, models[rng.Intn(len(models))]
		if n := rng.Intn(5); n > 0 {
			res.Links = make([]LinkShare, n-1)
		}
		for j := range res.Links {
			res.Links[j] = LinkShare{link(), float(), float()}
		}
	}
	if n := rng.Intn(40); n > 0 {
		resp.Shifted = make(map[wan.LinkID]float64)
		for i := 1; i < n; i++ {
			resp.Shifted[link()] = float()
		}
	}
	return resp
}

// TestAppendJSONMatchesEncodingJSON: the encoder's bytes are
// json.Encoder's, and what json.Encoder refuses it refuses.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	check := func(resp *Response) {
		t.Helper()
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(resp)
		got, err := resp.AppendJSON([]byte("prefix"))
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%+v: AppendJSON error %v, encoding/json error %v", resp, err, wantErr)
		}
		if err != nil {
			if string(got) != "prefix" {
				t.Fatalf("%+v: a refused response left %q in the buffer", resp, got)
			}
			return
		}
		if string(got) != "prefix"+want.String() {
			t.Fatalf("%+v encodes as\n%s, encoding/json writes\n%s", resp, got[len("prefix"):], want.Bytes())
		}
	}
	for i := 0; i < 3000; i++ {
		check(randomResponse(rng))
	}
	check(&Response{})
	check(&Response{Results: []Result{}, Shifted: map[wan.LinkID]float64{}})
	check(&Response{Shifted: map[wan.LinkID]float64{0: 1, 9: 2, 10: 3, 99: 4, 100: 5, 1000000000: 6, 4294967295: 7, 429496729: 8, 42: 9}})
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		check(&Response{Results: []Result{{Links: []LinkShare{{1, bad, 1}}}}})
		check(&Response{Results: []Result{{Links: []LinkShare{{1, 1, bad}}}}})
		check(&Response{Shifted: map[wan.LinkID]float64{3: bad}})
	}
}

// The codec's allocations on the what-if of TestWhatIfAllocs, pinned
// exactly like those; a lower number is committed by editing it.
const (
	decodeAllocs = 256 // each flow's src_addr; into a warm Request, from a body with room past its end
	appendAllocs = 0   // shifted's keys sort on the stack, into a buffer with room
)

// TestCodecAllocs pins the codec's two stages of /v1/predict apart
// from the rest: DecodeRequest decoding the 256-flow what-if again into
// the Request it filled, and AppendJSON writing its answer again into
// the buffer that held it.
func TestCodecAllocs(t *testing.T) {
	f := testFixture(t)
	req, flows := f.whatIf(t, 255)
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	body := append(make([]byte, 0, len(b)+1), b...)
	var into Request
	if err := DecodeRequest(body, &into); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() {
		if err := DecodeRequest(body, &into); err != nil {
			t.Fatal(err)
		}
	}); got != decodeAllocs {
		t.Errorf("DecodeRequest allocates %v times per %d-flow request, want %d", got, len(flows), decodeAllocs)
	}
	if !reflect.DeepEqual(&into, req) {
		t.Error("the what-if does not survive json.Marshal and DecodeRequest")
	}
	resp := respond(f.genA, req, flows)
	buf, err := resp.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() {
		if buf, err = resp.AppendJSON(buf[:0]); err != nil {
			t.Fatal(err)
		}
	}); got != appendAllocs {
		t.Errorf("AppendJSON allocates %v times per %d-flow answer, want %d", got, len(flows), appendAllocs)
	}
}

func BenchmarkDecodeRequest(b *testing.B) {
	f := testFixture(b)
	req, _ := f.whatIf(b, 255)
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	body = append(make([]byte, 0, len(body)+1), body...) // room for the NUL, as a read body has
	var into Request
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeRequest(body, &into); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendJSON(b *testing.B) {
	f := testFixture(b)
	req, flows := f.whatIf(b, 255)
	resp := respond(f.genA, req, flows)
	buf, err := resp.AppendJSON(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = resp.AppendJSON(buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
}
