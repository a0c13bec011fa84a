package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	goruntime "runtime"
	"sort"
	"sync/atomic"
	"time"

	"ftsched/internal/appio"
	"ftsched/internal/apps"
	"ftsched/internal/core"
	"ftsched/internal/gen"
	"ftsched/internal/model"
	"ftsched/internal/obs"
	"ftsched/internal/runtime"
	"ftsched/internal/serveapi"
	"ftsched/internal/sim"
)

// Fixed load and sizing of the wire workloads. The open-loop rates are
// constants, not a share of a measured capacity, so a faster server
// shows up as lower latency at the same offered load.
const (
	// clients bounds both the load's goroutines and its connections.
	clients          = 2
	cyclesPerRequest = 32
	// poolSize distinct request bodies are sent round robin.
	poolSize = 64
	// rounds is how many times a run repeats its whole sequence, each
	// time from set-up on; every metric is a median over rounds or read
	// from blocks of all of them (blockStats), so each spans the whole run
	// rather than one stretch of it. Twelve give the once-a-round figures
	// (setup_s, synth_ms on the wire) twelve samples.
	rounds = 12

	dispatchRate = 600.0 // requests/s offered to wire-dispatch
	fleetRate    = 400.0 // requests/s offered to wire-fleet

	ccM          = 39
	fleetApps    = 32
	fleetSeed    = 2008
	fleetM       = 8
	fleetMinProc = 10
	fleetMaxProc = 20

	// The paper's case-study evaluation: 20 000 scenarios per fault
	// level; the Monte-Carlo seed is fixed so utility_nofault is pinned.
	paperScenarios = 20000
	paperMCSeed    = 3
	// pinnedUtilityNoFault is the cruise controller's mean no-fault
	// utility over paperScenarios scenarios at paperMCSeed with the
	// FTQS tree at M=39. Any change is a change of the scheduler's
	// output, not of its speed.
	pinnedUtilityNoFault = 702.9312313888873

	fleetEvalScenarios = 2000
	// sampleEvery: one request in sampleEvery (chosen by seed) has its
	// wire results compared with an in-process dispatcher run.
	sampleEvery = 8
	// maxReplays bounds the traced run's per-stage replays.
	maxReplays = 256
)

// Request IDs of each load phase start at its own base, so spans of
// different phases never share a request ID.
const (
	phaseWarmUp       = 0
	phaseClosed       = 1 << 32
	phaseOpen         = 2 << 32
	phaseTracedClosed = 3 << 32
	phaseReplay       = 4 << 32
	phasePipeline     = 5 << 32
)

// target is one application the workload serves, with the in-process
// reference the wire results are checked against.
type target struct {
	app  *model.Application
	json []byte
	tree *core.Tree
	disp *runtime.Dispatcher
	// key is the tree key the server returned at set-up.
	key string
}

// request is one pooled dispatch request and its expected results.
type request struct {
	target int
	req    serveapi.DispatchRequest
	body   []byte
	want   []serveapi.CycleResultJSON
}

// wireSpec is what distinguishes the two wire workloads.
type wireSpec struct {
	apps []*model.Application
	m    int
	// embed sends every dispatch with its application and options
	// instead of the tree key, so each request is resolved through the
	// canonical re-encode and SHA-256 key before its cache hit.
	embed   bool
	rate    float64
	certify serveapi.CertifyConfigJSON
	// Each round certifies certifyPerRound targets and evaluates
	// evalPerRound, rotating over the targets. certify_ms is the mean
	// over targets of each target's median call time;
	// mc_scenarios_per_s is the median over rounds.
	certifyPerRound, evalPerRound int
	evalScenarios                 int
	evalFaults                    []int
	// pinned checks the no-fault utility against pinnedUtilityNoFault.
	pinned bool
}

func wireDispatch(r *run) error {
	return runWire(r, wireSpec{
		apps: []*model.Application{apps.CruiseController()}, m: ccM, rate: dispatchRate,
		certifyPerRound: 2, evalPerRound: 1,
		evalScenarios: paperScenarios, evalFaults: []int{0, 1, 2}, pinned: true,
	})
}

func wireFleet(r *run) error {
	fleet, err := generateFleet(fleetSeed)
	if err != nil {
		return err
	}
	return runWire(r, wireSpec{
		apps: fleet, m: fleetM, embed: true, rate: fleetRate,
		// Frontier mode: exhaustive certification of k=3 applications
		// runs to millions of scenarios, which would dwarf the rest.
		certify:         serveapi.CertifyConfigJSON{Budget: 1},
		certifyPerRound: (fleetApps + rounds - 1) / rounds, evalPerRound: (fleetApps + rounds - 1) / rounds,
		evalScenarios: fleetEvalScenarios, evalFaults: []int{0},
	})
}

// generateFleet draws the §6 applications of wire-fleet: sizes cycle
// through 10..20 processes, structure and timing come from the seed, and
// unschedulable draws are redrawn as in the paper's methodology. The
// fleet's seed is fixed (the workload seed draws the cycles and the
// arrivals), so the synthesis and certification work of a run does not
// change with the workload seed.
func generateFleet(seed int64) ([]*model.Application, error) {
	rng := rand.New(rand.NewSource(seed))
	fleet := make([]*model.Application, 0, fleetApps)
	for i := 0; i < fleetApps; i++ {
		n := fleetMinProc + i%(fleetMaxProc-fleetMinProc+1)
		for attempt := 0; ; attempt++ {
			if attempt == 50 {
				return nil, fmt.Errorf("no schedulable %d-process application in 50 draws", n)
			}
			app, err := gen.Generate(rng, gen.Default(n))
			if err != nil {
				return nil, err
			}
			if _, err := core.FTSS(app); err == nil {
				fleet = append(fleet, app)
				break
			}
		}
	}
	return fleet, nil
}

func runWire(r *run, spec wireSpec) error {
	ctx := context.Background()
	var heap heapPeak
	opts := serveapi.FTQSOptionsJSON{M: spec.m, Workers: r.workers}

	// In-process references: the same synthesis the server runs, timed
	// as the core and runtime layers' own cost.
	targets := make([]*target, len(spec.apps))
	var ftqsMS, compileUS []float64
	for i, app := range spec.apps {
		var buf bytes.Buffer
		if err := appio.EncodeApplication(&buf, app); err != nil {
			return err
		}
		t0 := time.Now()
		tree, err := core.FTQS(app, opts.Core())
		if err != nil {
			return fmt.Errorf("reference synthesis of %s: %w", app.Name(), err)
		}
		t1 := time.Now()
		disp, err := runtime.NewDispatcher(tree)
		if err != nil {
			return err
		}
		ftqsMS = append(ftqsMS, ms(t1.Sub(t0)))
		compileUS = append(compileUS, us(time.Since(t1)))
		targets[i] = &target{app: app, json: buf.Bytes(), tree: tree, disp: disp}
	}
	if spec.pinned {
		r.check(len(targets[0].tree.Nodes) == ccM, "cruise controller tree has %d nodes, want %d",
			len(targets[0].tree.Nodes), ccM)
	}
	ref := func(t *target) serveapi.TreeRef {
		if spec.embed {
			return serveapi.TreeRef{App: t.json, Options: &opts}
		}
		return serveapi.TreeRef{TreeKey: t.key}
	}

	// One collector pair for every round's server and client, so the
	// counters add up over the run.
	serverM, clientM := obs.NewMetrics(), obs.NewMetrics()
	var (
		pool       []*request
		mismatches atomic.Int64
		srv        *server
		// the measured samples, one or more per round
		setupS, synthMS []float64
		engines         = engineSamples{
			certifyMS: make([][]float64, len(targets)),
			utility:   make([]float64, len(targets)),
			evaluated: make([]bool, len(targets)),
		}
		synthWall              time.Duration
		closedOK, tracedOK     int
		closedTime, tracedTime time.Duration
		allocs, closedOps      uint64
		openAll, lag           []float64
		openBlocks             = newBlockStats()
		load                   counters
		picked                 atomic.Int64
	)
	replays := make([]int, maxReplays)

	send := func(tr *Tracer, phase int64, keep bool) op {
		return func(ctx context.Context, j int) error {
			p := j % len(pool)
			req := phase + int64(j)
			var span int64
			t0 := time.Now()
			if tr != nil {
				span = tr.NewID()
				ctx = withTrace(ctx, span, req)
			}
			resp, err := srv.client.Dispatch(ctx, pool[p].req)
			tr.Record(span, 0, req, "client.call", t0, time.Now())
			if err != nil {
				return err
			}
			if sampled(r.seed, req) {
				if !reflect.DeepEqual(resp.Results, pool[p].want) {
					mismatches.Add(1)
				}
				if keep {
					if i := picked.Add(1) - 1; i < maxReplays {
						replays[i] = p
					}
				}
			}
			return nil
		}
	}
	account := func(st loopStats) {
		r.attempted += st.ok + st.failed
		r.failed += st.failed
	}
	closedShare, openShare := 0.35, 0.65
	if r.tr != nil {
		// The traced run adds a traced closed loop, for the overhead.
		closedShare, openShare = 0.2, 0.6
	}
	closedDur := r.share(closedShare / rounds)
	openDur := r.share(openShare / rounds)

	// Every round sets up a fresh server and measures each metric once,
	// so every metric samples the whole run's span of host conditions.
	for k := 0; k < rounds; k++ {
		t0 := time.Now()
		var err error
		if srv, err = bootServer(r.workers, clients, r.tr, serverM, clientM); err != nil {
			return err
		}
		var synth time.Duration
		for _, t := range targets {
			c0 := time.Now()
			resp, err := srv.client.Synthesize(ctx, serveapi.SynthesizeRequest{App: t.json, Options: opts})
			if r.op(err) != nil {
				srv.Close()
				return fmt.Errorf("synthesize %s: %w", t.app.Name(), err)
			}
			synth += time.Since(c0)
			r.check(resp.Nodes == len(t.tree.Nodes), "%s: wire tree has %d nodes, in-process %d",
				t.app.Name(), resp.Nodes, len(t.tree.Nodes))
			r.check(!resp.CacheHit, "%s: first synthesis on a fresh server was a cache hit", t.app.Name())
			r.check(t.key == "" || t.key == resp.TreeKey, "%s: tree key changed between servers", t.app.Name())
			t.key = resp.TreeKey
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		synthMS = append(synthMS, ms(synth)/float64(len(targets)))
		synthWall += synth
		heap.mark()
		if pool == nil {
			if pool, err = buildPool(r.seed, targets, ref); err != nil {
				srv.Close()
				return err
			}
		}
		if err := roundWork(r, srv, spec, targets, ref, k, &engines); err != nil {
			srv.Close()
			return err
		}

		account(closedLoop(ctx, clients, 300*time.Millisecond, send(nil, phaseWarmUp, false)))
		// The last mark of the round: the load allocates per request, not
		// per run, and what the run records about the load is the
		// benchmark's, not the program's.
		heap.mark()
		before := snapshotCounters(serverM)
		var m0, m1 goruntime.MemStats
		goruntime.ReadMemStats(&m0)
		closed := closedLoop(ctx, clients, closedDur, send(nil, phaseClosed+int64(k)<<24, false))
		goruntime.ReadMemStats(&m1)
		account(closed)
		closedOK += closed.ok
		closedTime += closed.elapsed
		allocs += m1.Mallocs - m0.Mallocs
		closedOps += uint64(closed.ok + closed.failed)
		if r.tr != nil {
			traced := closedLoop(ctx, clients, r.share(0.2/rounds), send(r.tr, phaseTracedClosed+int64(k)<<24, false))
			account(traced)
			tracedOK += traced.ok
			tracedTime += traced.elapsed
		}
		open := openLoop(ctx, clients, arrivals(sim.ScenarioSeed(r.seed, k), spec.rate, openDur),
			send(r.tr, phaseOpen+int64(k)<<24, k == rounds-1))
		account(open)
		after := snapshotCounters(serverM)
		for i := range load {
			load[i] += after[i] - before[i]
		}
		openBlocks.add(open.lat)
		openAll = append(openAll, durations(open.lat, time.Millisecond)...)
		lag = append(lag, durations(open.lag, time.Millisecond)...)

		if k == rounds-1 && r.tr != nil {
			n := min(int(picked.Load()), maxReplays)
			if err := replay(r, srv, spec, targets, pool, replays[:n]); err != nil {
				srv.Close()
				return err
			}
		}
		if err := srv.Close(); err != nil {
			return err
		}
	}
	r.check(mismatches.Load() == 0, "%d sampled wire responses differ from the in-process dispatcher", mismatches.Load())

	if err := openBlocks.enough("open loop"); err != nil {
		return err
	}
	sort.Float64s(openAll)
	sort.Float64s(lag)
	all50, _ := nearestRank(openAll, 0.5)
	all95, _ := nearestRank(openAll, 0.95)
	all99, _ := nearestRank(openAll, 0.99)
	lag99, _ := nearestRank(lag, 0.99)
	r.note("open loop: %d requests in %d rounds; over all p50 %.3f ms, p95 %.3f ms, p99 %.3f ms; idle-sender wake lag p99 %.3f ms",
		len(openAll), rounds, all50, all95, all99, lag99)
	var certifyPerTarget []float64
	for _, calls := range engines.certifyMS {
		certifyPerTarget = append(certifyPerTarget, median(calls))
	}
	r.e2e["setup_s"] = median(setupS)
	r.e2e["scenarios_per_s"] = float64(closedOK*cyclesPerRequest) / closedTime.Seconds()
	r.e2e["latency_p50_ms"] = openBlocks.p50.median()
	r.e2e["latency_p95_ms"] = openBlocks.p95.median()
	r.e2e["synth_ms"] = median(synthMS)
	r.e2e["certify_ms"] = mean(certifyPerTarget)
	r.e2e["mc_scenarios_per_s"] = median(engines.mcRate)
	r.e2e["utility_nofault"] = mean(engines.utility)
	r.e2e["peak_heap_mb"] = heap.MiB()

	if r.tr == nil {
		return nil
	}
	spans := r.tr.Spans()
	self := selfTimes(spans)
	var call, handler, callSelf []time.Duration
	for _, s := range spans {
		if s.Req < phaseOpen || s.Req >= phaseTracedClosed {
			continue // only the open loop's requests
		}
		switch s.Name {
		case "client.call":
			call = append(call, s.Dur())
			callSelf = append(callSelf, self[s.ID])
		case "serve.handler":
			handler = append(handler, s.Dur())
		}
	}
	L := r.layer
	L["client.call_p50_us"], _ = nearestRank(durations(call, time.Microsecond), 0.5)
	L["client.call_p99_us"], _ = nearestRank(durations(call, time.Microsecond), 0.99)
	L["client.self_p50_us"], _ = nearestRank(durations(callSelf, time.Microsecond), 0.5)
	L["client.attempts_per_request"] = ratio(float64(clientM.Counter(obs.ClientAttempts)),
		float64(clientM.Counter(obs.ClientRequests)))
	L["serve.handler_p50_us"], _ = nearestRank(durations(handler, time.Microsecond), 0.5)
	L["serve.handler_p99_us"], _ = nearestRank(durations(handler, time.Microsecond), 0.99)
	hits, misses := float64(load[obs.ServeCacheHits]), float64(load[obs.ServeCacheMisses])
	L["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
	L["serve.rejected"] = float64(serverM.Counter(obs.ServeRejectedRate) + serverM.Counter(obs.ServeRejectedLoad) +
		serverM.Counter(obs.ServeShed))
	L["runtime.compile_us"] = median(compileUS)
	L["runtime.switches_per_cycle"] = ratio(float64(load[obs.DispatchSwitches]), float64(load[obs.DispatchCycles]))
	L["sim.mc_ms"] = median(engines.evalMS)
	L["sim.scenarios"] = float64(engines.evalScenarios)
	synthesisLayer(L, ftqsMS, snapshotCounters(serverM), synthWall, r.workers, rounds*len(targets))
	certifyLayer(L, engines.certifyCallMS, engines.certCounts)
	L["proc.allocs_per_op"] = float64(allocs) / float64(max(closedOps, 1))
	L["bench.lag_p99_ms"] = lag99
	L["bench.trace_overhead_pct"] = overhead(closedOK, closedTime, tracedOK, tracedTime)
	stageLayer(L, spans)
	return nil
}

// engineSamples collects the samples of the offline engines behind the
// wire, over all rounds.
type engineSamples struct {
	certifyMS     [][]float64 // per target, its certify call times
	certifyCallMS []float64
	certCounts    []certifyCount
	mcRate        []float64 // per round
	evalMS        []float64
	evalScenarios int
	utility       []float64 // per target, its no-fault mean utility
	evaluated     []bool
}

// roundWork certifies and evaluates this round's share of the targets
// through the wire: spec.certifyPerRound and spec.evalPerRound targets,
// rotating, so over all rounds every target is covered.
func roundWork(r *run, srv *server, spec wireSpec, targets []*target, ref func(*target) serveapi.TreeRef, k int, s *engineSamples) error {
	ctx := context.Background()
	for i := 0; i < spec.certifyPerRound; i++ {
		ti := (k*spec.certifyPerRound + i) % len(targets)
		t := targets[ti]
		c0 := time.Now()
		resp, err := srv.client.Certify(ctx, serveapi.CertifyRequest{TreeRef: ref(t), Config: spec.certify})
		if r.op(err) != nil {
			return fmt.Errorf("certify %s: %w", t.app.Name(), err)
		}
		d := ms(time.Since(c0))
		s.certifyMS[ti] = append(s.certifyMS[ti], d)
		s.certifyCallMS = append(s.certifyCallMS, d)
		r.check(resp.Certified && resp.Counterexample == nil, "%s: certification found a counterexample", t.app.Name())
		s.certCounts = append(s.certCounts, certifyCount{resp.Report.Scenarios, resp.Report.Patterns, resp.Report.PatternsPruned})
	}
	var total time.Duration
	scen := 0
	for i := 0; i < spec.evalPerRound; i++ {
		ti := (k*spec.evalPerRound + i) % len(targets)
		t := targets[ti]
		for _, f := range spec.evalFaults {
			cfg := serveapi.MCConfigJSON{Scenarios: spec.evalScenarios, Faults: f, Seed: paperMCSeed, Workers: r.workers}
			c0 := time.Now()
			resp, err := srv.client.Eval(ctx, serveapi.EvalRequest{TreeRef: ref(t), Config: cfg})
			if r.op(err) != nil {
				return fmt.Errorf("eval %s: %w", t.app.Name(), err)
			}
			d := time.Since(c0)
			total += d
			s.evalMS = append(s.evalMS, ms(d))
			scen += resp.Stats.Scenarios
			r.check(resp.Stats.HardViolations == 0, "%s: %d hard violations at %d faults",
				t.app.Name(), resp.Stats.HardViolations, f)
			if f != 0 || s.evaluated[ti] {
				continue
			}
			s.evaluated[ti] = true
			s.utility[ti] = resp.Stats.MeanUtility
			if spec.pinned {
				r.check(resp.Stats.MeanUtility == pinnedUtilityNoFault, "%s: no-fault utility %v, pinned %v",
					t.app.Name(), resp.Stats.MeanUtility, pinnedUtilityNoFault)
				continue
			}
			local, err := sim.MonteCarlo(t.tree, sim.MCConfig{Scenarios: cfg.Scenarios, Seed: cfg.Seed, Workers: r.workers})
			if err != nil {
				return err
			}
			r.check(resp.Stats == serveapi.StatsJSON(local), "%s: wire evaluation differs from in-process", t.app.Name())
		}
	}
	s.evalScenarios += scen
	s.mcRate = append(s.mcRate, float64(scen)/total.Seconds())
	return nil
}

// sampled picks the requests whose results are checked, by seed.
func sampled(seed, req int64) bool {
	return uint64(sim.ScenarioSeed(seed, int(req)))%sampleEvery == 0
}

// buildPool draws poolSize requests, rotating over the targets. Each
// request's expected results come from the target's in-process
// dispatcher.
func buildPool(seed int64, targets []*target, ref func(*target) serveapi.TreeRef) ([]*request, error) {
	pool := make([]*request, poolSize)
	var res runtime.Result
	for p := range pool {
		ti := p % len(targets)
		t := targets[ti]
		batch := make([]runtime.Scenario, cyclesPerRequest)
		if err := fillBatch(batch, seed, p, t.app, processIDs(t.app)); err != nil {
			return nil, err
		}
		cycles := make([]serveapi.CycleJSON, cyclesPerRequest)
		want := make([]serveapi.CycleResultJSON, cyclesPerRequest)
		for i, cyc := range batch {
			if err := t.disp.RunInto(&res, cyc); err != nil {
				return nil, err
			}
			if len(res.HardViolations) != 0 {
				return nil, fmt.Errorf("%s: in-model cycle misses a hard deadline in-process", t.app.Name())
			}
			cycles[i] = serveapi.CycleJSONOf(cyc)
			want[i] = serveapi.ResultJSON(&res)
		}
		req := serveapi.DispatchRequest{TreeRef: ref(t), Cycles: cycles}
		// The body exactly as the client marshals it.
		wire := req
		wire.Format = serveapi.FormatV1
		body, err := json.Marshal(wire)
		if err != nil {
			return nil, err
		}
		pool[p] = &request{target: ti, req: req, body: body, want: want}
	}
	return pool, nil
}

// fillBatch draws batch p of a seed into batch, reusing its scenarios'
// slices: in-model cycles where cycle i carries i mod (k+1) faults, as
// ftload's devices do, on victims drawn from procs (every process ID, in
// order; passed in so that drawing allocates nothing).
func fillBatch(batch []runtime.Scenario, seed int64, p int, app *model.Application, procs []model.ProcessID) error {
	var rng sim.RNG
	for i := range batch {
		rng.Reseed(sim.ScenarioSeed(seed, p*len(batch)+i))
		if err := sim.SampleRNGInto(&batch[i], app, &rng, i%(app.K()+1), procs); err != nil {
			return err
		}
	}
	return nil
}

// processIDs lists every process of app, in ID order.
func processIDs(app *model.Application) []model.ProcessID {
	ids := make([]model.ProcessID, app.N())
	for i := range ids {
		ids[i] = model.ProcessID(i)
	}
	return ids
}

// replay passes sampled request bodies through the public functions
// serve's dispatch handler calls, in its order, each under its own
// span: request decode, (for an embedded application, the appio decode
// and canonical encode that resolving it costs), cache resolve, cycle
// validation, dispatch, and result encoding.
func replay(r *run, srv *server, spec wireSpec, targets []*target, pool []*request, picked []int) error {
	ctx := context.Background()
	tr := r.tr
	var res [cyclesPerRequest]runtime.Result
	scen := make([]runtime.Scenario, cyclesPerRequest)
	results := make([]serveapi.CycleResultJSON, cyclesPerRequest)
	var buf bytes.Buffer
	for i, p := range picked {
		pr := pool[p]
		t := targets[pr.target]
		req := phaseReplay + int64(i)
		root := tr.NewID()
		t0 := time.Now()

		mark := time.Now()
		step := func(name string) {
			now := time.Now()
			tr.Record(0, root, req, name, mark, now)
			mark = now
		}
		dreq, werr := serveapi.DecodeDispatchRequest(pr.body)
		if werr != nil {
			return werr
		}
		step("serveapi.decode")
		if spec.embed {
			app, err := appio.DecodeApplication(bytes.NewReader(dreq.App))
			if err != nil {
				return err
			}
			step("appio.decode")
			var canon bytes.Buffer
			if err := appio.EncodeApplication(&canon, app); err != nil {
				return err
			}
			step("appio.encode")
		}
		_, _, hit, werr := srv.srv.Cache().Resolve(ctx, dreq.TreeRef)
		if werr != nil {
			return werr
		}
		step("serve.resolve")
		for c, cyc := range dreq.Cycles {
			scen[c] = cyc.Scenario()
			if err := scen[c].Validate(t.app); err != nil {
				return err
			}
		}
		step("runtime.validate")
		for c := range scen {
			if err := t.disp.RunInto(&res[c], scen[c]); err != nil {
				return err
			}
		}
		step("runtime.run")
		for c := range res {
			results[c] = serveapi.ResultJSON(&res[c])
		}
		buf.Reset()
		if err := json.NewEncoder(&buf).Encode(&serveapi.DispatchResponse{
			Format: serveapi.FormatV1, TreeKey: t.key, CacheHit: hit, Results: results,
		}); err != nil {
			return err
		}
		step("serveapi.encode")
		tr.Record(root, 0, req, "bench.replay", t0, time.Now())
		r.check(hit, "replayed request %d missed the tree cache", i)
		r.check(reflect.DeepEqual(results, pr.want), "replayed request %d differs from the pooled expectation", i)
		r.layer["serveapi.response_bytes"] = float64(buf.Len())
	}
	total := 0
	for _, pr := range pool {
		total += len(pr.body)
	}
	r.layer["serveapi.request_bytes"] = float64(total) / float64(len(pool))
	return nil
}

// stageLayer reduces the replay spans to per-stage medians. Stages a
// workload never ran report 0.
func stageLayer(L map[string]float64, spans []Span) {
	med := func(name string, unit time.Duration) float64 {
		return median(durations(spanDurations(spans, name), unit))
	}
	L["serveapi.decode_us"] = med("serveapi.decode", time.Microsecond)
	L["serveapi.encode_us"] = med("serveapi.encode", time.Microsecond)
	L["appio.decode_us"] = med("appio.decode", time.Microsecond)
	L["appio.encode_us"] = med("appio.encode", time.Microsecond)
	L["serve.resolve_us"] = med("serve.resolve", time.Microsecond)
	L["runtime.validate_us"] = med("runtime.validate", time.Microsecond)
	L["runtime.cycle_ns"] = med("runtime.run", time.Nanosecond) / cyclesPerRequest
}

// synthesisLayer reports the core layer: the FTQS time per call and the
// synthesis counters of one set-up's worth of syntheses (calls trees in
// wall time synth).
func synthesisLayer(L map[string]float64, ftqsMS []float64, c counters, synth time.Duration, workers, calls int) {
	L["core.ftqs_ms"] = median(ftqsMS)
	L["core.nodes_expanded"] = float64(c[obs.FTQSNodesExpanded]) / float64(calls)
	L["core.memo_hit_ratio"] = ratio(float64(c[obs.FTQSMemoHits]), float64(c[obs.FTQSMemoHits]+c[obs.FTQSMemoMisses]))
	L["core.prefetch_hit_ratio"] = ratio(float64(c[obs.FTQSPrefetchHits]), float64(c[obs.FTQSPrefetchHits]+c[obs.FTQSPrefetchMisses]))
	L["core.worker_busy_ratio"] = ratio(float64(c[obs.FTQSWorkerBusyNanos]), float64(synth.Nanoseconds())*float64(workers))
}

// certifyCount is what one certification explored.
type certifyCount struct {
	scenarios        int64
	patterns, pruned int
}

// certifyLayer reports the certify layer from per-call times and what
// each call explored.
func certifyLayer(L map[string]float64, certifyMS []float64, reports []certifyCount) {
	var scen, patterns, pruned float64
	for _, rep := range reports {
		scen += float64(rep.scenarios)
		patterns += float64(rep.patterns)
		pruned += float64(rep.pruned)
	}
	perCall := ratio(scen, float64(len(reports)))
	L["certify.ms"] = median(certifyMS)
	L["certify.scenarios"] = perCall
	L["certify.patterns_pruned_ratio"] = ratio(pruned, patterns+pruned)
	L["certify.us_per_scenario"] = ratio(median(certifyMS)*1000, perCall)
}

// overhead is how much longer a traced request takes than an untraced
// one, in percent, from the untraced and traced closed loops'
// throughputs.
func overhead(okU int, untraced time.Duration, okT int, traced time.Duration) float64 {
	u := float64(okU) / untraced.Seconds()
	t := float64(okT) / traced.Seconds()
	return (ratio(u, t) - 1) * 100
}

// counters is a copy of every obs counter.
type counters [obs.NumCounters]int64

func snapshotCounters(m *obs.Metrics) counters {
	var c counters
	for i := range c {
		c[i] = m.Counter(obs.Counter(i))
	}
	return c
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
