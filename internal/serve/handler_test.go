package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"ftsched/internal/appio"
	"ftsched/internal/apps"
	"ftsched/internal/runtime"
	"ftsched/internal/serveapi"
	"ftsched/internal/sim"
)

// serveOnce runs one request through the handler in process.
func serveOnce(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// ccDispatchBody synthesises the cruise controller at M=39 on s and
// returns a key-only dispatch body of n in-model cycles, cycle i
// carrying i mod (k+1) faults — the wire benchmark's request shape.
func ccDispatchBody(tb testing.TB, s *Server, n int) []byte {
	tb.Helper()
	app := apps.CruiseController()
	var appBuf bytes.Buffer
	if err := appio.EncodeApplication(&appBuf, app); err != nil {
		tb.Fatal(err)
	}
	syn, err := json.Marshal(serveapi.SynthesizeRequest{
		Format: serveapi.FormatV1, App: appBuf.Bytes(), Options: serveapi.FTQSOptionsJSON{M: 39},
	})
	if err != nil {
		tb.Fatal(err)
	}
	rec := serveOnce(s.Handler(), "/v1/synthesize", syn)
	var sresp serveapi.SynthesizeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sresp); err != nil || rec.Code != http.StatusOK {
		tb.Fatalf("synthesize: %d %s", rec.Code, rec.Body.Bytes())
	}
	req := serveapi.DispatchRequest{Format: serveapi.FormatV1, TreeRef: serveapi.TreeRef{TreeKey: sresp.TreeKey}}
	rng := sim.NewRNG(1)
	for i := 0; i < n; i++ {
		var sc runtime.Scenario
		if err := sim.SampleRNGInto(&sc, app, &rng, i%(app.K()+1), nil); err != nil {
			tb.Fatal(err)
		}
		req.Cycles = append(req.Cycles, serveapi.CycleJSONOf(sc))
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestResponsesAreSized checks that responses are encoded before the
// status line: every body goes out with a Content-Length matching it,
// so net/http never falls back to chunked encoding.
func TestResponsesAreSized(t *testing.T) {
	s := New(Config{})
	body := ccDispatchBody(t, s, 32)
	for _, tc := range []struct {
		path string
		body []byte
		code int
	}{
		{"/v1/dispatch", body, http.StatusOK},
		{"/v1/dispatch", []byte(`{"format":"nope"}`), http.StatusBadRequest},
		{"/v1/eval", []byte(`{"format":"ftsched-api/v1","tree_key":"missing","config":{"scenarios":1}}`), http.StatusNotFound},
	} {
		rec := serveOnce(s.Handler(), tc.path, tc.body)
		if rec.Code != tc.code {
			t.Fatalf("%s: status %d, want %d: %s", tc.path, rec.Code, tc.code, rec.Body.Bytes())
		}
		if got, want := rec.Header().Get("Content-Length"), strconv.Itoa(rec.Body.Len()); got != want {
			t.Errorf("%s: Content-Length %q, body %s bytes", tc.path, got, want)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Errorf("%s: body is not JSON: %s", tc.path, rec.Body.Bytes())
		}
	}
}

// TestEncodeFailureIsTypedInternal checks that a response which cannot
// be encoded is served as a typed 500 KindInternal, not as an empty 200,
// and still counts as one handled request.
func TestEncodeFailureIsTypedInternal(t *testing.T) {
	s := New(Config{})
	h := s.wrap("dispatch", func(context.Context, *Tenant, []byte) (any, *serveapi.Error) {
		return &serveapi.DispatchResponse{Results: []serveapi.CycleResultJSON{{Utility: math.NaN()}}}, nil
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodPost, "/v1/dispatch", bytes.NewReader([]byte(`{}`))))
	var er serveapi.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatalf("body %q: %v", rec.Body.Bytes(), err)
	}
	if rec.Code != http.StatusInternalServerError || er.Err.Kind != serveapi.KindInternal ||
		er.Err.Code != http.StatusInternalServerError || er.Err.Tenant != serveapi.DefaultTenant {
		t.Fatalf("status %d, error %+v; want a typed 500 %s for tenant %q",
			rec.Code, er.Err, serveapi.KindInternal, serveapi.DefaultTenant)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length %q for a %d-byte body", got, rec.Body.Len())
	}
}

// BenchmarkDispatchHandler measures the whole /v1/dispatch handler in
// process at the wire benchmark's shape — cruise controller, M=39, 32
// cycles per request, a cached tree — through httptest.NewRecorder, so
// no socket time is included.
func BenchmarkDispatchHandler(b *testing.B) {
	s := New(Config{})
	body := ccDispatchBody(b, s, 32)
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serveOnce(h, "/v1/dispatch", body); rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
}
