// Command ftload soaks an ftserved process with a fleet of simulated
// embedded devices and records the latency distribution of the batch
// dispatch path — the service-layer benchmark behind BENCH_serve.json
// and, in -chaos mode, the resilience benchmark behind
// BENCH_resilience.json.
//
// Each device is one goroutine with its own deterministic in-model cycle
// stream (seeded per device, sampled through the same scenario engine the
// evaluator uses). Devices synthesise the shared tree once, then issue
// batch dispatch requests back to back through the self-healing client:
// admission rejections (typed 429/503) are waited out per the server's
// RetryAfterMillis hint, transport faults are retried with capped
// full-jitter backoff, and only requests that stay failed after the
// client gives up count against the run.
//
// In -chaos mode ftload boots the in-process server behind a seeded
// faultwire injector (-fault-spec, -fault-seed), kills the server with
// prejudice mid-run — dropping every in-flight connection and the whole
// compiled-tree cache — and restarts it on the same port. Dispatch
// requests embed the application next to the tree key, so the restarted
// server recompiles the identical tree (SHA-256 keys make the retry
// idempotent) and the soak completes with zero lost responses.
//
// Usage:
//
//	ftload -devices 100 -requests 50 -batch 64 -fixture fig1
//	ftload -addr http://127.0.0.1:8433 -devices 10000 -requests 10
//	ftload -devices 1000 -out BENCH_serve.json
//	ftload -chaos -fault-spec 'latency:p=0.1,ms=5;reset:p=0.05;truncate:p=0.03;corrupt:p=0.03;error:p=0.05' -out BENCH_resilience.json
//
// Without -addr, ftload boots an in-process ftserved on a loopback port
// and soaks that — the self-contained mode CI uses. -chaos requires the
// in-process server (it must be able to kill it).
//
// Exit status: 0 when every request completed (or, outside -chaos, was
// rejected with a typed admission error after well-behaved retries) and
// at least one request succeeded; in -chaos mode additionally zero lost
// responses; 1 otherwise.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ftsched/client"
	"ftsched/internal/appio"
	"ftsched/internal/cli"
	"ftsched/internal/faultwire"
	"ftsched/internal/model"
	"ftsched/internal/obs"
	"ftsched/internal/runtime"
	"ftsched/internal/serve"
	"ftsched/internal/serveapi"
	"ftsched/internal/sim"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ftload:", err)
	os.Exit(1)
}

// Result is the BENCH_serve.json / BENCH_resilience.json schema.
type Result struct {
	Fixture   string  `json:"fixture"`
	Devices   int     `json:"devices"`
	Requests  int     `json:"requests_per_device"`
	Batch     int     `json:"cycles_per_batch"`
	Elapsed   float64 `json:"elapsed_sec"`
	OK        int64   `json:"ok"`
	Rejected  int64   `json:"rejected_admission"`
	Errors    int64   `json:"errors"`
	Scenarios int64   `json:"scenarios_dispatched"`
	// ScenariosPerSec is dispatched cycles per wall-clock second across
	// the whole fleet (the goodput figure).
	ScenariosPerSec float64 `json:"scenarios_per_sec"`
	// Retries counts client-side retry attempts across the fleet.
	Retries int64 `json:"retries"`
	// Latency quantiles of successful batch dispatch requests, as the
	// client observed them — retry backoff included.
	LatencyMS LatencyMS `json:"latency_ms"`

	// Chaos-soak extras (present only with -chaos).
	Chaos bool `json:"chaos,omitempty"`
	// FaultSpec and FaultSeed reproduce the injected-fault schedule.
	FaultSpec string `json:"fault_spec,omitempty"`
	FaultSeed int64  `json:"fault_seed,omitempty"`
	// InjectedFaults counts wire faults the injector actually fired.
	InjectedFaults int64 `json:"injected_faults,omitempty"`
	// Restarts counts hard kill+restart cycles of the server.
	Restarts int `json:"restarts,omitempty"`
	// BreakerOpens counts client circuit-breaker open transitions.
	BreakerOpens int64 `json:"breaker_opens,omitempty"`
	// Lost counts responses never obtained — the soak's headline is
	// that this stays zero through faults and a server crash.
	Lost int64 `json:"lost_responses"`
	// Availability is OK / (OK + Lost + Errors).
	Availability float64 `json:"availability"`
}

// LatencyMS is the latency summary, in milliseconds.
type LatencyMS struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// localServer owns the in-process ftserved: a fixed loopback port, an
// optional faultwire injector that survives restarts (the fault schedule
// keeps advancing), and a kill/start pair the chaos soak drives. A kill
// is deliberately brutal — Close drops in-flight connections and the
// replacement server starts with an empty tree cache, exactly what a
// crashed process would look like to the fleet.
type localServer struct {
	cfg      serve.Config
	injector *faultwire.Injector

	mu      sync.Mutex
	addr    string
	httpSrv *http.Server
}

// start listens (first call picks the port, restarts reuse it) and
// serves a fresh serve.Server behind the injector.
func (ls *localServer) start() error {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	addr := ls.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	ls.addr = ln.Addr().String()
	handler := serve.New(ls.cfg).Handler()
	if ls.injector != nil {
		handler = ls.injector.Middleware(handler)
	}
	ls.httpSrv = &http.Server{Handler: handler}
	go func(s *http.Server) { _ = s.Serve(ln) }(ls.httpSrv)
	return nil
}

// kill closes the listener and every in-flight connection.
func (ls *localServer) kill() {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.httpSrv != nil {
		_ = ls.httpSrv.Close()
		ls.httpSrv = nil
	}
}

func main() {
	var (
		addr     = flag.String("addr", "", "base URL of a running ftserved (empty: boot one in-process)")
		fixture  = flag.String("fixture", "fig1", "built-in application the fleet dispatches against: fig1, fig4c, fig8, cc")
		devices  = flag.Int("devices", 64, "simulated devices (one goroutine each)")
		requests = flag.Int("requests", 20, "batch dispatch requests per device")
		batch    = flag.Int("batch", 64, "cycles per batch request")
		m        = flag.Int("m", 8, "quasi-static tree size for the shared application")
		seed     = flag.Int64("seed", 1, "base seed; device d draws its cycles from seed+d")
		workers  = flag.Int("workers", 1, "server-side worker hint per batch (the soak measures concurrency across devices, not within one batch)")
		out      = flag.String("out", "", "write the JSON benchmark record here (default: stdout summary only)")

		chaosMode = flag.Bool("chaos", false, "resilience soak: inject wire faults and kill+restart the in-process server mid-run")
		faultSpec = flag.String("fault-spec", "latency:p=0.1,ms=5;error:p=0.05;reset:p=0.04;truncate:p=0.03;corrupt:p=0.03",
			"faultwire spec for -chaos (see internal/faultwire)")
		faultSeed = flag.Int64("fault-seed", 1, "seed of the injected-fault schedule (-chaos)")
		restarts  = flag.Int("restarts", 1, "hard kill+restart cycles of the server during a -chaos soak")
	)
	flag.Parse()

	if *chaosMode && *addr != "" {
		fatal(errors.New("-chaos needs the in-process server (it kills and restarts it); drop -addr"))
	}

	app, err := cli.LoadApp(*fixture, "")
	if err != nil {
		fatal(err)
	}

	var local *localServer
	base := *addr
	if base == "" {
		local = &localServer{cfg: serve.Config{}}
		if *chaosMode {
			spec, err := faultwire.ParseSpec(*faultSpec)
			if err != nil {
				fatal(err)
			}
			local.injector = faultwire.New(spec, *faultSeed, nil)
		}
		if err := local.start(); err != nil {
			fatal(err)
		}
		base = "http://" + local.addr
		fmt.Fprintf(os.Stderr, "ftload: booted in-process ftserved on %s\n", base)
	}

	// One shared transport sized for the fleet: the soak measures the
	// server, not a starved client connection pool.
	transport := &http.Transport{
		MaxIdleConns:        *devices,
		MaxIdleConnsPerHost: *devices,
		IdleConnTimeout:     90 * time.Second,
	}
	httpc := &http.Client{Transport: transport, Timeout: 120 * time.Second}
	clientM := obs.NewMetrics()
	c := client.New(base,
		client.WithHTTPClient(httpc),
		client.WithRetryPolicy(client.DefaultRetryPolicy()),
		client.WithMetrics(clientM),
	)

	var appBuf bytes.Buffer
	if err := appio.EncodeApplication(&appBuf, app); err != nil {
		fatal(err)
	}
	opts := serveapi.FTQSOptionsJSON{M: *m}
	ctx := context.Background()
	syn, err := c.Synthesize(ctx, serveapi.SynthesizeRequest{App: appBuf.Bytes(), Options: opts})
	if err != nil {
		fatal(fmt.Errorf("synthesize: %w", err))
	}
	fmt.Fprintf(os.Stderr, "ftload: tree %s (%d nodes), %d devices x %d requests x %d cycles\n",
		syn.TreeKey[:12], syn.Nodes, *devices, *requests, *batch)

	// The tree reference devices dispatch against. The chaos soak embeds
	// the application: a freshly restarted server has an empty cache, and
	// the embedded app lets it recompile the byte-identical tree (same
	// SHA-256 key) instead of answering unknown_tree.
	ref := serveapi.TreeRef{TreeKey: syn.TreeKey}
	if *chaosMode {
		ref.App = appBuf.Bytes()
		ref.Options = &opts
	}

	// The killer goroutine watches fleet progress and spreads -restarts
	// hard kills across the middle of the run.
	total := int64(*devices) * int64(*requests)
	var completed atomic.Int64
	killerDone := make(chan struct{})
	restartsDone := 0
	if *chaosMode && *restarts > 0 {
		go func() {
			defer close(killerDone)
			for k := 1; k <= *restarts; k++ {
				at := total * int64(k) / int64(*restarts+1)
				for completed.Load() < at {
					time.Sleep(10 * time.Millisecond)
				}
				fmt.Fprintf(os.Stderr, "ftload: killing server (restart %d/%d, %d/%d responses in)\n",
					k, *restarts, completed.Load(), total)
				local.kill()
				time.Sleep(150 * time.Millisecond)
				if err := local.start(); err != nil {
					fatal(fmt.Errorf("restarting server: %w", err))
				}
				restartsDone++
			}
		}()
	} else {
		close(killerDone)
	}

	type deviceStats struct {
		lat      []time.Duration
		ok       int64
		rejected int64
		errs     int64
		lost     int64
	}
	stats := make([]deviceStats, *devices)
	var wg sync.WaitGroup
	start := time.Now()
	for d := 0; d < *devices; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			st := &stats[d]
			st.lat = make([]time.Duration, 0, *requests)
			cycles := sampleCycles(app, *seed+int64(d), *batch)
			req := serveapi.DispatchRequest{TreeRef: ref, Cycles: cycles, Workers: *workers}
			for r := 0; r < *requests; r++ {
				t0 := time.Now()
				err := dispatchOnce(ctx, c, req, *chaosMode)
				elapsed := time.Since(t0)
				completed.Add(1)
				switch {
				case err == nil:
					st.ok++
					st.lat = append(st.lat, elapsed)
				case isAdmission(err):
					// A well-behaved client already waited out every
					// RetryAfterMillis hint; a rejection that still
					// stands is the server's honest "not now".
					st.rejected++
				case *chaosMode:
					st.lost++
				default:
					st.errs++
				}
			}
		}(d)
	}
	wg.Wait()
	<-killerDone
	elapsed := time.Since(start)

	res := Result{
		Fixture: *fixture, Devices: *devices, Requests: *requests, Batch: *batch,
		Elapsed: elapsed.Seconds(),
		Retries: clientM.Counter(obs.ClientRetries),
	}
	var all []time.Duration
	for i := range stats {
		res.OK += stats[i].ok
		res.Rejected += stats[i].rejected
		res.Errors += stats[i].errs
		res.Lost += stats[i].lost
		all = append(all, stats[i].lat...)
	}
	res.Scenarios = res.OK * int64(*batch)
	res.ScenariosPerSec = float64(res.Scenarios) / elapsed.Seconds()
	if denom := res.OK + res.Lost + res.Errors; denom > 0 {
		res.Availability = float64(res.OK) / float64(denom)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res.LatencyMS = LatencyMS{
		P50: quantileMS(all, 0.50),
		P95: quantileMS(all, 0.95),
		P99: quantileMS(all, 0.99),
	}
	if len(all) > 0 {
		res.LatencyMS.Max = float64(all[len(all)-1]) / float64(time.Millisecond)
	}
	if *chaosMode {
		res.Chaos = true
		res.FaultSpec = *faultSpec
		res.FaultSeed = *faultSeed
		res.Restarts = restartsDone
		res.BreakerOpens = clientM.Counter(obs.ClientBreakerOpened)
		if local.injector != nil {
			res.InjectedFaults = local.injector.Injected()
		}
	}

	fmt.Printf("requests: %d ok, %d rejected (admission), %d errors, %d lost in %.2fs\n",
		res.OK, res.Rejected, res.Errors, res.Lost, res.Elapsed)
	fmt.Printf("dispatch: %d cycles, %.0f scenarios/sec, %d client retries\n",
		res.Scenarios, res.ScenariosPerSec, res.Retries)
	fmt.Printf("latency:  p50 %.2fms  p95 %.2fms  p99 %.2fms  max %.2fms\n",
		res.LatencyMS.P50, res.LatencyMS.P95, res.LatencyMS.P99, res.LatencyMS.Max)
	if *chaosMode {
		fmt.Printf("chaos:    %d injected faults, %d restarts, %d breaker opens, availability %.4f\n",
			res.InjectedFaults, res.Restarts, res.BreakerOpens, res.Availability)
	}

	if *out != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "ftload: wrote %s\n", *out)
	}
	if res.Errors > 0 || res.OK == 0 || res.Lost > 0 {
		os.Exit(1)
	}
}

// dispatchOnce issues one dispatch through the self-healing client. In
// chaos mode a response is never abandoned while the server might come
// back: exhausted retry rounds re-enter with a pause (the policy inside
// each round already did the fine-grained backoff), bounded well above
// the restart window so a genuinely dead server still terminates the
// soak.
func dispatchOnce(ctx context.Context, c *client.Client, req serveapi.DispatchRequest, chaos bool) error {
	rounds := 1
	if chaos {
		rounds = 40
	}
	var err error
	for i := 0; i < rounds; i++ {
		_, err = c.Dispatch(ctx, req)
		if err == nil {
			return nil
		}
		var rex *client.RetryExhaustedError
		if !errors.As(err, &rex) {
			// Non-retryable: more rounds cannot change the answer.
			return err
		}
		if chaos && i+1 < rounds {
			time.Sleep(100 * time.Millisecond)
		}
	}
	return err
}

// isAdmission reports whether an error is (or exhausted retries on) a
// typed admission rejection.
func isAdmission(err error) bool {
	var werr *serveapi.Error
	if !errors.As(err, &werr) {
		return false
	}
	switch werr.Kind {
	case serveapi.KindRateLimited, serveapi.KindOverloaded, serveapi.KindDraining:
		return true
	}
	return false
}

// quantileMS reads the q-quantile (nearest-rank) from a sorted latency
// slice, in milliseconds; an empty slice yields 0.
func quantileMS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i]) / float64(time.Millisecond)
}

// sampleCycles draws one device's in-model batch deterministically: the
// same seed always yields the same cycles, so soak runs are reproducible.
func sampleCycles(app *model.Application, seed int64, n int) []serveapi.CycleJSON {
	var rng sim.RNG
	var sc runtime.Scenario
	cycles := make([]serveapi.CycleJSON, n)
	for i := 0; i < n; i++ {
		rng.Reseed(sim.ScenarioSeed(seed, i))
		if err := sim.SampleRNGInto(&sc, app, &rng, i%(app.K()+1), nil); err != nil {
			fatal(err)
		}
		cycles[i] = serveapi.CycleJSONOf(runtime.Scenario{
			Durations: append([]model.Time(nil), sc.Durations...),
			FaultsAt:  append([]int(nil), sc.FaultsAt...),
			NFaults:   sc.NFaults,
		})
	}
	return cycles
}
