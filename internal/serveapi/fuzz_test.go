package serveapi

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// refDecodeInto is the two-pass decode every request went through before
// the single-pass decoders: sniff the format, then unmarshal the whole
// body again. It is the reference the single-pass decoders must match.
func refDecodeInto(data []byte, dst any) *Error {
	if werr := sniffFormat(data); werr != nil {
		return werr
	}
	if err := json.Unmarshal(data, dst); err != nil {
		return badRequest(KindBadRequest, "decoding request: %v", err)
	}
	return nil
}

// refDecode runs the reference decode plus a decoder's validation.
func refDecode[T any](data []byte, check func(*T) *Error) (*T, *Error) {
	req := new(T)
	if werr := refDecodeInto(data, req); werr != nil {
		return nil, werr
	}
	if werr := check(req); werr != nil {
		return nil, werr
	}
	return req, nil
}

// withConfig adapts a validation that also returns a config.
func withConfig[T, C any](check func(*T) (C, *Error)) func(*T) *Error {
	return func(req *T) *Error {
		_, werr := check(req)
		return werr
	}
}

// FuzzDecodeAPIRequest drives every request decoder with arbitrary bytes.
// The invariants: no decoder panics, every rejection is a typed *Error
// with a 4xx code and a known kind, every accepted body re-encodes, and
// each single-pass decoder agrees with the two-pass reference: the same
// verdict, the same value when both accept, and the same Kind, Code,
// Field and Message when both reject — except that a type error the
// dispatch codec words itself need only match in Kind and Code.
func FuzzDecodeAPIRequest(f *testing.F) {
	f.Add([]byte(`{"format":"ftsched-api/v1","app":{"k":1},"options":{"m":4}}`))
	f.Add([]byte(`{"format":"ftsched-api/v1","tree_key":"abc","config":{"scenarios":100,"faults":1}}`))
	f.Add([]byte(`{"format":"ftsched-api/v1","tree_key":"abc","config":{"max_faults":2,"budget":1000}}`))
	f.Add([]byte(`{"format":"ftsched-api/v1","tree_key":"abc","config":{"cycles":8,"policy":"shed-soft","overrun_prob":0.5,"overrun_factor":2}}`))
	f.Add([]byte(`{"format":"ftsched-api/v1","tree_key":"abc","cycles":[{"durations":[3,5],"faults_at":[1,0]}]}`))
	f.Add([]byte(`{"format":"ftsched-api/v1","tree_key":"abc","trim":{"scenarios":256,"seed":7}}`))
	f.Add([]byte(`{"format":"ftsched-tree/v3"}`))
	f.Add([]byte(`{"format":null}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add([]byte(`{"format":"ftsched-api/v1","config":{"scenarios":-1}}`))
	f.Add([]byte(`{"format":"ftsched-api/v1","tree_key":"abc","config":{"cycles":1,"policy":"nope"}}`))
	// A later null unsets the format for the sniffer, whatever came first.
	f.Add([]byte(`{"format":"ftsched-api/v1","tree_key":"abc","format":null,"cycles":[{"durations":[1]}]}`))
	f.Add([]byte(`{"FORMAT":"ftsched-api/v1","Tree_Key":"abc","config":{"scenarios":"1"}}`))
	f.Add([]byte(`{"format":"ftsched-api/v1","tree_key":"abc","cycles":[{"durations":[1.5]}]}`))

	known := map[string]bool{
		KindBadRequest: true, KindUnknownFormat: true, KindInvalidConfig: true,
		KindInvalidApp: true, KindUnknownTree: true,
	}
	check := func(t *testing.T, werr *Error) {
		if werr == nil {
			return
		}
		if werr.Code < 400 || werr.Code > 499 {
			t.Fatalf("decode rejection carries non-4xx code %d: %+v", werr.Code, werr)
		}
		if !known[werr.Kind] {
			t.Fatalf("decode rejection carries unknown kind %q: %+v", werr.Kind, werr)
		}
		if werr.Message == "" {
			t.Fatalf("decode rejection carries no message: %+v", werr)
		}
	}
	reencode := func(t *testing.T, v any) {
		if _, err := json.Marshal(v); err != nil {
			t.Fatalf("accepted request does not re-encode: %v", err)
		}
	}
	// agree compares one decoder's outcome with the reference's.
	agree := func(t *testing.T, name string, data []byte, got, want any, gotErr, wantErr *Error, ownTypeErrors bool) {
		t.Helper()
		check(t, gotErr)
		switch {
		case gotErr == nil && wantErr == nil:
			reencode(t, got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: single-pass value %+v, reference %+v for %q", name, got, want, data)
			}
		case gotErr == nil || wantErr == nil:
			t.Fatalf("%s: single-pass error %v, reference error %v for %q", name, gotErr, wantErr, data)
		case gotErr.Kind != wantErr.Kind || gotErr.Code != wantErr.Code || gotErr.Field != wantErr.Field:
			t.Fatalf("%s: single-pass rejection %+v, reference %+v for %q", name, gotErr, wantErr, data)
		case gotErr.Message != wantErr.Message:
			const prefix = "decoding request: "
			if !ownTypeErrors || !strings.HasPrefix(gotErr.Message, prefix) || !strings.HasPrefix(wantErr.Message, prefix) {
				t.Fatalf("%s: single-pass message %q, reference %q for %q", name, gotErr.Message, wantErr.Message, data)
			}
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		{
			got, gotErr := DecodeSynthesizeRequest(data)
			want, wantErr := refDecode(data, checkSynthesize)
			agree(t, "synthesize", data, got, want, gotErr, wantErr, false)
		}
		{
			got, _, gotErr := DecodeEvalRequest(data)
			want, wantErr := refDecode(data, withConfig(checkEval))
			agree(t, "eval", data, got, want, gotErr, wantErr, false)
		}
		{
			got, _, gotErr := DecodeCertifyRequest(data)
			want, wantErr := refDecode(data, withConfig(checkCertify))
			agree(t, "certify", data, got, want, gotErr, wantErr, false)
		}
		{
			got, _, gotErr := DecodeChaosRequest(data)
			want, wantErr := refDecode(data, withConfig(checkChaos))
			agree(t, "chaos", data, got, want, gotErr, wantErr, false)
		}
		{
			got, gotErr := DecodeDispatchRequest(data)
			want, wantErr := refDecode(data, checkDispatch)
			agree(t, "dispatch", data, got, want, gotErr, wantErr, true)
		}
		{
			got, gotErr := DecodeReloadRequest(data)
			want, wantErr := refDecode(data, checkReload)
			agree(t, "reload", data, got, want, gotErr, wantErr, false)
		}
	})
}
