package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"ftsched/client"
	"ftsched/internal/obs"
	"ftsched/internal/serve"
)

// Headers that carry a traced request's identity from the client's
// transport to the benchmark's middleware around the server handler.
const (
	spanHeader = "X-Ftbench-Span"
	reqHeader  = "X-Ftbench-Req"
)

// server is an in-process ftserved on a loopback port plus the client
// the load talks through.
type server struct {
	srv    *serve.Server
	client *client.Client

	httpSrv   *http.Server
	served    chan error
	transport *http.Transport
}

// bootServer starts the server and a client limited to maxConns
// connections, reporting to the given collectors. With a tracer, a
// middleware records a "serve.handler" span around the server's handler
// for every request whose client call was traced.
func bootServer(workers, maxConns int, tr *Tracer, serverM, clientM *obs.Metrics) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &server{served: make(chan error, 1)}
	s.srv = serve.New(serve.Config{Metrics: serverM, MaxWorkers: workers})
	var h http.Handler = s.srv.Handler()
	if tr != nil {
		h = traceHandler(tr, h)
	}
	s.httpSrv = &http.Server{Handler: h}
	go func() { s.served <- s.httpSrv.Serve(ln) }()

	s.transport = &http.Transport{
		MaxIdleConnsPerHost: maxConns,
		MaxConnsPerHost:     maxConns,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
	var rt http.RoundTripper = s.transport
	if tr != nil {
		rt = traceTransport{next: rt}
	}
	s.client = client.New("http://"+ln.Addr().String(),
		client.WithHTTPClient(&http.Client{Transport: rt, Timeout: 60 * time.Second}),
		client.WithRetryPolicy(client.DefaultRetryPolicy()),
		client.WithMetrics(clientM),
	)
	return s, nil
}

// Close stops the server, waits for its serve loop to return and drops
// the client's idle connections.
func (s *server) Close() error {
	s.transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.httpSrv.Shutdown(ctx)
	if serr := <-s.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// traceIDs is the context value a traced client call carries.
type traceIDs struct{ span, req int64 }

type traceKey struct{}

func withTrace(ctx context.Context, span, req int64) context.Context {
	return context.WithValue(ctx, traceKey{}, traceIDs{span, req})
}

// traceTransport stamps the call's span and request IDs on every HTTP
// attempt so the server-side middleware can parent its span.
type traceTransport struct{ next http.RoundTripper }

func (t traceTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ids, ok := r.Context().Value(traceKey{}).(traceIDs); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatInt(ids.span, 10))
		r.Header.Set(reqHeader, strconv.FormatInt(ids.req, 10))
	}
	return t.next.RoundTrip(r)
}

func traceHandler(tr *Tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64) // set together with the span header
		start := time.Now()
		next.ServeHTTP(w, r)
		tr.Record(0, parent, req, "serve.handler", start, time.Now())
	})
}
