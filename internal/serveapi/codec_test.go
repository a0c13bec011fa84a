package serveapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"ftsched/internal/apps"
	"ftsched/internal/model"
	"ftsched/internal/runtime"
	"ftsched/internal/sim"
)

// dispatchShape builds a dispatch request and response at the wire
// benchmark's shape: the cruise controller, key-only tree reference,
// cycle i carrying i mod (k+1) faults, and results with the spread of
// values a dispatcher reports.
func dispatchShape(tb testing.TB, cycles int) (*DispatchRequest, *DispatchResponse) {
	tb.Helper()
	app := apps.CruiseController()
	key := strings.Repeat("9f86d081884c7d65", 4)
	req := &DispatchRequest{Format: FormatV1, TreeRef: TreeRef{TreeKey: key}, Cycles: make([]CycleJSON, cycles)}
	resp := &DispatchResponse{Format: FormatV1, TreeKey: key, CacheHit: true, Results: make([]CycleResultJSON, cycles)}
	r := sim.NewRNG(1)
	for i := range req.Cycles {
		var sc runtime.Scenario
		if err := sim.SampleRNGInto(&sc, app, &r, i%(app.K()+1), nil); err != nil {
			tb.Fatal(err)
		}
		req.Cycles[i] = CycleJSONOf(sc)
		resp.Results[i] = CycleResultJSON{
			Utility:        200 * r.Float64(),
			Makespan:       model.Time(r.Intn(400)),
			FinalNode:      r.Intn(39),
			Switches:       r.Intn(3),
			Recoveries:     i % (app.K() + 1),
			FaultsConsumed: i % (app.K() + 1),
			Energy:         1e4 * r.Float64(),
		}
	}
	return req, resp
}

// checkRequestCodec compares the request codec with encoding/json on one
// body: the same verdict (a body json.Unmarshal accepts but the format
// sniff rejects must come back as errFormat), the same value, and, for
// an accepted value, the same encoding as json.Marshal.
func checkRequestCodec(t *testing.T, data []byte) {
	t.Helper()
	got, err := decodeDispatchRequest(data)
	var want DispatchRequest
	switch jerr := json.Unmarshal(data, &want); {
	case jerr != nil:
		if err == nil {
			t.Fatalf("codec accepts a body encoding/json rejects (%v): %q", jerr, data)
		}
		return
	case sniffFormat(data) != nil:
		if !errors.Is(err, errFormat) {
			t.Fatalf("codec returns %v, want errFormat, for %q", err, data)
		}
		return
	case err != nil:
		t.Fatalf("codec rejects a body encoding/json accepts (%v): %q", err, data)
	}
	if !reflect.DeepEqual(got, &want) {
		t.Fatalf("codec decodes %+v, encoding/json %+v, from %q", got, &want, data)
	}
	for i, c := range got.Cycles {
		if cap(c.Durations) != len(c.Durations) || cap(c.FaultsAt) != len(c.FaultsAt) {
			t.Fatalf("cycle %d: slices share capacity with their neighbours", i)
		}
	}
	wantBytes, jerr := json.Marshal(got)
	gotBytes, err := AppendDispatchRequest(nil, got)
	if (jerr == nil) != (err == nil) || !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("codec encodes %q (%v), json.Marshal %q (%v)", gotBytes, err, wantBytes, jerr)
	}
}

// checkResponseCodec compares the response codec with encoding/json on
// one body: the same verdict, the same value, and for an accepted value
// the same bytes as json.Encoder.
func checkResponseCodec(t *testing.T, data []byte) {
	t.Helper()
	got, err := DecodeDispatchResponse(data)
	var want DispatchResponse
	jerr := json.Unmarshal(data, &want)
	if (err == nil) != (jerr == nil) {
		t.Fatalf("codec error %v, encoding/json error %v, for %q", err, jerr, data)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, &want) {
		t.Fatalf("codec decodes %+v, encoding/json %+v, from %q", got, &want, data)
	}
	var buf bytes.Buffer
	jerr = json.NewEncoder(&buf).Encode(got)
	gotBytes, err := AppendDispatchResponse(nil, got)
	if (jerr == nil) != (err == nil) || !bytes.Equal(gotBytes, buf.Bytes()) {
		t.Fatalf("codec encodes %q (%v), json.Encoder %q (%v)", gotBytes, err, buf.Bytes(), jerr)
	}
}

// damaged returns truncated and 0x00-corrupted copies of body, the two
// payload faults the faultwire middleware injects.
func damaged(body []byte) [][]byte {
	var out [][]byte
	for _, n := range []int{0, 1, len(body) / 3, len(body) / 2, len(body) - 2, len(body) - 1} {
		out = append(out, body[:n])
	}
	for _, at := range []int{0, len(body) / 2, len(body) - 2} {
		c := bytes.Clone(body)
		c[at] = 0x00
		out = append(out, c)
	}
	return out
}

func FuzzDispatchRequestCodec(f *testing.F) {
	req, _ := dispatchShape(f, 32)
	body, err := json.Marshal(req)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)
	for _, b := range damaged(body) {
		f.Add(b)
	}
	const v1 = `"format":"ftsched-api/v1"`
	for _, s := range []string{
		// Case-folded and escaped keys, including the non-ASCII folds of
		// k (KELVIN SIGN) and s (LONG S).
		`{"FORMAT":"ftsched-api/v1","Tree_Key":"k","CYCLES":[{"Durations":[1],"FAULTS_AT":[0]}],"Workers":2}`,
		`{"format":"ftsched-api/v1","tree_Key":"k","cycles":[{"durations":[3],"faults_at":[1]}]}`,
		"{" + v1 + ",\"tree_\u212aey\":\"k\"," + `"options":{"M":4,"ſweep_ſamples":2,"MIN_GAIN":0.5,"Disable_Revival":true}}`,
		`{"form\u0061t":"ftsched-api/v1","tree_\u212Aey":"k","cycles":[{"dur\u0061tions":[3],"f\u0061ults_at":[1]}]}`,
		// Duplicate keys decode into what is already there.
		`{` + v1 + `,"cycles":[{"durations":[1,2,3],"faults_at":[1,0,0]},{"durations":[4]}],"cycles":[{"durations":[9]},null,null],"cycles":[null,null,null]}`,
		`{` + v1 + `,"cycles":[{"durations":[1,2,3],"durations":[7],"durations":[null,null,null,null]}]}`,
		`{` + v1 + `,"cycles":[{"durations":[1,2],"faults_at":[1]},{"durations":[5,6,7]}],"cycles":[{"durations":[null,null,8]}]}`,
		`{` + v1 + `,"cycles":[{"durations":[1,2]}],"cycles":[],"cycles":[{"durations":[null]}]}`,
		`{` + v1 + `,"options":{"m":4,"workers":1},"options":{"workers":2},"tree_key":"a","tree_key":"b"}`,
		`{` + v1 + `,"format":null,"cycles":[{"durations":[1]}]}`,
		`{"format":null,` + v1 + `,"cycles":[{"durations":[1]}]}`,
		`{` + v1 + `,"app":{"a":1},"app":null}`,
		// null in every position.
		`{` + v1 + `,"tree_key":null,"app":null,"options":null,"cycles":null,"workers":null}`,
		`{` + v1 + `,"options":{"m":null,"sweep_samples":null,"min_gain":null,"eval_scenarios":null,"disable_revival":null,"workers":null},"cycles":[null,{"durations":null,"faults_at":null},{"durations":[null,1],"faults_at":[]}]}`,
		`null`,
		// Numbers: exponents, fractions, overflow, leading zeros.
		`{` + v1 + `,"cycles":[{"durations":[1e3]}]}`,
		`{` + v1 + `,"cycles":[{"durations":[1.0]}]}`,
		`{` + v1 + `,"cycles":[{"durations":[9223372036854775807,-9223372036854775808,-0]}]}`,
		`{` + v1 + `,"cycles":[{"durations":[9223372036854775808]}]}`,
		`{` + v1 + `,"cycles":[{"durations":[-9223372036854775809]}]}`,
		`{` + v1 + `,"cycles":[{"durations":[12345678901234567890123]}]}`,
		`{` + v1 + `,"cycles":[{"durations":[01]}]}`,
		`{` + v1 + `,"workers":1E2}`,
		`{` + v1 + `,"options":{"min_gain":1e400}}`,
		`{` + v1 + `,"options":{"min_gain":1e-400,"m":-0}}`,
		`{` + v1 + `,"options":{"min_gain":-0.0}}`,
		`{` + v1 + `,"cycles":[{"durations":[-]}]}`,
		`{` + v1 + `,"cycles":[{"durations":[1.]}]}`,
		`{` + v1 + `,"cycles":[{"durations":[1e+]}]}`,
		// HTML characters, escapes and invalid UTF-8 in tree_key.
		`{` + v1 + `,"tree_key":"<a&b>  \ud800x􏿿\u0001\"\\\/\b\f\n\r\t"}`,
		"{" + v1 + `,"tree_key":"bad` + "\xff\xfe\xc3" + `utf8é€𝄞"}`,
		"{" + v1 + `,"tree_key":"ctl` + "\x01" + `"}`,
		`{` + v1 + `,"tree_key":"bad escape \x"}`,
		`{` + v1 + `,"tree_key":"short \u12"}`,
		// An embedded application with whitespace, and raw values of
		// every type.
		`{` + v1 + `, "app" : { "name" : "x <y>", "k" : [ 1 , 2.5e3 , true , null ] } , "options" : { "m" : 8 } }`,
		`{` + v1 + `,"app":"str"}`,
		`{` + v1 + `,"app":[1,[2,{}]]}`,
		`{` + v1 + `,"app":-1.5e-3}`,
		// Unknown fields of every type.
		`{` + v1 + `,"extra":{"a":[1,{"b":null}],"c":"é"},"more":[true,false,null,-1.5e3],"s":"x","n":0,"cycles":[{"x":{"y":[]},"durations":[2]}]}`,
		// Type errors.
		`{` + v1 + `,"cycles":{}}`,
		`{` + v1 + `,"cycles":[1]}`,
		`{` + v1 + `,"cycles":[{"durations":"x"}]}`,
		`{` + v1 + `,"cycles":[{"durations":[true]}]}`,
		`{` + v1 + `,"options":[]}`,
		`{` + v1 + `,"options":{"disable_revival":1}}`,
		`{` + v1 + `,"workers":"1"}`,
		`{"format":1}`,
		`{` + v1 + `,"tree_key":true}`,
		// Syntax.
		``, ` `, `{`, `{}`, `[]`, `"x"`, `{}x`, `{} `, `{,}`, `{"a":1,}`, `{"a"}`, `{"a":}`,
		`{` + v1 + `,"cycles":[{"durations":[1,]}]}`,
		`{` + v1 + `,"x":tru}`, `{` + v1 + `,"x":nul}`, `{` + v1 + `,"x":falsey}`,
		`{` + v1 + `,"x":'a'}`, `{` + v1 + `,"x":"\'"}`,
		"\xef\xbb\xbf{" + v1 + "}",
		`{` + v1 + `,"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
		`{` + v1 + `,"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(checkRequestCodec)
}

func FuzzDispatchResponseCodec(f *testing.F) {
	_, resp := dispatchShape(f, 32)
	resp.Results[3].HardViolations = []int{4, 17}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		f.Fatal(err)
	}
	body := buf.Bytes()
	f.Add(body)
	for _, b := range damaged(body) {
		f.Add(b)
	}
	const v1 = `"format":"ftsched-api/v1"`
	for _, s := range []string{
		`{` + v1 + `,"results":[{"hard_violations":[]}]}`,
		`{` + v1 + `,"results":[{"hard_violations":null}]}`,
		`{` + v1 + `,"results":[{"utility":1}]}`,
		`{` + v1 + `,"results":[{"hard_violations":[1,2,3]},{"energy":2}],"results":[{"hard_violations":[null]},null,{}]}`,
		`{` + v1 + `,"results":[{"hard_violations":[1,2,3],"hard_violations":[4],"hard_violations":[null,null,null]}]}`,
		`{` + v1 + `,"results":[],"results":[null]}`,
		`{"FORMAT":"x","Tree_Key":"<&>","CACHE_HIT":true,"Results":null}`,
		`{"cache_hit":null,"cache_hit":false,"cache_hit":"true"}`,
		`{"results":[{"utility":1e-7,"energy":1e21,"makespan":-0}]}`,
		`{"results":[{"utility":123456789012345678901234,"energy":5e-324}]}`,
		`{"results":[{"utility":0.000001,"energy":-1e-6,"final_node":1.5}]}`,
		`{"results":[{"utility":1e400}]}`,
		`{"results":[{"makespan":9223372036854775808}]}`,
		`{"results":{}}`,
		`{"results":[1]}`,
		`null`, ``, `[]`, `{}`, `{"results":[{}]} x`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(checkResponseCodec)
}

// TestDispatchDecodeForgetsEarlierRequests decodes bodies back to back,
// so pooled scratch carries one request's cycles into the next: a null
// cycle of the second body must still decode as the zero cycle.
func TestDispatchDecodeForgetsEarlierRequests(t *testing.T) {
	for _, body := range []string{
		`{"format":"ftsched-api/v1","cycles":[{"durations":[1,2],"faults_at":[1,0]},{"durations":[3]},{"durations":[4]}]}`,
		`{"format":"ftsched-api/v1","cycles":[null,null,{"durations":[5]}]}`,
		`{"format":"ftsched-api/v1","cycles":[{"faults_at":[null]},null]}`,
	} {
		checkRequestCodec(t, []byte(body))
	}
}

// fill sets every field reachable from v to a non-zero value, so that a
// round trip through the codec covers the whole schema.
func fill(t *testing.T, v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d <&> é ", *n))
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n) * 1000003)
	case reflect.Float64:
		v.SetFloat(float64(*n) / 7)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), n)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i), n)
		}
	case reflect.Slice:
		if v.Type() == reflect.TypeOf(json.RawMessage(nil)) {
			v.SetBytes([]byte(fmt.Sprintf(`{"name":"app%d","k":[1,2]}`, *n)))
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fill(t, v.Index(i), n)
		}
	default:
		t.Fatalf("fill: no rule for %s; extend fill and the dispatch codec", v.Type())
	}
}

// TestDispatchCodecCoversSchema sets every field of the dispatch DTOs —
// TreeRef, FTQSOptionsJSON and CycleJSON inside the request,
// CycleResultJSON inside the response — and requires the codec to
// encode and decode them exactly as encoding/json does. A field added to
// a dispatch DTO without codec support fails here.
func TestDispatchCodecCoversSchema(t *testing.T) {
	var n int
	var req DispatchRequest
	fill(t, reflect.ValueOf(&req).Elem(), &n)
	req.Format = FormatV1 // the decoder only accepts v1 bodies
	body, err := AppendDispatchRequest(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("request encoding:\ncodec %s\njson  %s", body, want)
	}
	got, err := decodeDispatchRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, &req) {
		t.Fatalf("request round trip:\ngot  %+v\nwant %+v", got, &req)
	}
	checkRequestCodec(t, body)

	var resp DispatchResponse
	fill(t, reflect.ValueOf(&resp).Elem(), &n)
	rbody, err := AppendDispatchResponse(nil, &resp)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&resp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rbody, buf.Bytes()) {
		t.Fatalf("response encoding:\ncodec %s\njson  %s", rbody, buf.Bytes())
	}
	rgot, err := DecodeDispatchResponse(rbody)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rgot, &resp) {
		t.Fatalf("response round trip:\ngot  %+v\nwant %+v", rgot, &resp)
	}
	checkResponseCodec(t, rbody)
}

// TestDispatchCodecFloats pins the float rule at its cut-offs and the
// NaN/Inf failure against encoding/json.
func TestDispatchCodecFloats(t *testing.T) {
	for _, f := range []float64{0, 1, -1, 0.1, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 123456789.125, 5e-324, 1.7976931348623157e308} {
		resp := &DispatchResponse{Results: []CycleResultJSON{{Utility: f, Energy: -f}}}
		got, err := AppendDispatchResponse(nil, resp)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, buf.Bytes()) {
			t.Errorf("%g: codec %s, json %s", f, got, buf.Bytes())
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := AppendDispatchResponse(nil, &DispatchResponse{Results: []CycleResultJSON{{Energy: bad}}}); err == nil {
			t.Errorf("%g: response encodes", bad)
		}
		if _, err := AppendDispatchRequest(nil, &DispatchRequest{TreeRef: TreeRef{Options: &FTQSOptionsJSON{MinGain: bad}}}); err == nil {
			t.Errorf("%g: request encodes", bad)
		}
	}
	if _, err := AppendDispatchRequest(nil, &DispatchRequest{TreeRef: TreeRef{App: json.RawMessage(`{"a":`)}}); err == nil {
		t.Error("request with a broken app encodes")
	}
}

// TestDispatchCodecAllocs gates the codec's allocation discipline:
// request decode allocates the same at 32 and 256 cycles (one backing
// array for all durations, one for all fault counts), and a response
// encodes into a reused buffer without allocating.
func TestDispatchCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are meaningless")
	}
	decodeAllocs := func(cycles int) float64 {
		req, _ := dispatchShape(t, cycles)
		body, err := AppendDispatchRequest(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			if _, werr := DecodeDispatchRequest(body); werr != nil {
				t.Fatal(werr)
			}
		})
	}
	if a32, a256 := decodeAllocs(32), decodeAllocs(256); a32 != a256 {
		t.Errorf("request decode: %v allocs at 32 cycles, %v at 256", a32, a256)
	}
	_, resp := dispatchShape(t, 32)
	buf := make([]byte, 0, 64<<10)
	if a := testing.AllocsPerRun(50, func() {
		var err error
		if buf, err = AppendDispatchResponse(buf[:0], resp); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("response encode into a reused buffer: %v allocs, want 0", a)
	}
}

var (
	sinkRequest  *DispatchRequest
	sinkResponse *DispatchResponse
	sinkBytes    []byte
)

// BenchmarkDispatchCodec measures the four codec stages of a dispatch
// round trip at the wire benchmark's shape (cruise controller, 32
// cycles), each next to the encoding/json path it replaced.
func BenchmarkDispatchCodec(b *testing.B) {
	req, resp := dispatchShape(b, 32)
	reqBody, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		b.Fatal(err)
	}
	respBody := buf.Bytes()
	out := make([]byte, 0, 64<<10)
	run := func(name string, op func() error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("decode-request/codec", func() error {
		var werr *Error
		if sinkRequest, werr = DecodeDispatchRequest(reqBody); werr != nil {
			return werr
		}
		return nil
	})
	run("decode-request/encoding-json", func() error {
		var werr *Error
		if sinkRequest, werr = refDecode(reqBody, checkDispatch); werr != nil {
			return werr
		}
		return nil
	})
	run("encode-response/codec", func() (err error) {
		out, err = AppendDispatchResponse(out[:0], resp)
		return err
	})
	run("encode-response/encoding-json", func() error {
		buf.Reset()
		return json.NewEncoder(&buf).Encode(resp)
	})
	run("encode-request/codec", func() (err error) {
		sinkBytes, err = AppendDispatchRequest(nil, req)
		return err
	})
	run("encode-request/encoding-json", func() (err error) {
		sinkBytes, err = json.Marshal(req)
		return err
	})
	run("decode-response/codec", func() (err error) {
		sinkResponse, err = DecodeDispatchResponse(respBody)
		return err
	})
	run("decode-response/encoding-json", func() error {
		sinkResponse = new(DispatchResponse)
		return json.Unmarshal(respBody, sinkResponse)
	})
}
