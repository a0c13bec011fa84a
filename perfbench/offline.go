package main

import (
	"bytes"
	"errors"
	goruntime "runtime"
	"time"

	"ftsched/internal/appio"
	"ftsched/internal/apps"
	"ftsched/internal/certify"
	"ftsched/internal/core"
	"ftsched/internal/obs"
	"ftsched/internal/runtime"
	"ftsched/internal/sim"
)

// offlineCC is the paper's cruise-controller case study in-process: FTQS
// at M=39, dispatcher compilation, certification and the 20 000-scenario
// Monte-Carlo evaluation at 0, 1 and 2 faults, repeated for most of the
// run; then batches of the wire workloads' shape, dispatched in-process —
// the floor the wire adds to. The dispatch loop runs on one goroutine:
// its latency is the online scheduler's own cost per batch, which a
// second goroutine contending for the same two cores would blur with the
// host's scheduling.
//
// The dispatch figures are read from the run's quietest stretches
// (blockStats): on a shared host this loop alternates, over seconds,
// between two speeds about 1.8x apart as neighbours load the core, and a
// figure over the whole run reads how long the neighbours were busy
// rather than the program. The whole-run figures go to a note. The
// pipeline passes run on both cores and report medians over passes.
func offlineCC(r *run) error {
	var heap heapPeak
	opts := core.FTQSOptions{M: ccM, Workers: r.workers}
	// The traced run attaches a live sink to every engine.
	var sink obs.Sink
	m := obs.NewMetrics()
	if r.tr != nil {
		sink = m
	}

	// Tracing one batch in traceEvery keeps the trace's size and cost in
	// proportion to the wire workloads'.
	const traceEvery = 16
	app := apps.CruiseController()
	var appJSON, canon bytes.Buffer
	if err := appio.EncodeApplication(&appJSON, app); err != nil {
		return err
	}
	var switches, cycles, violations int
	batch := make([]runtime.Scenario, cyclesPerRequest)
	procs := processIDs(app)
	drawn := 0
	// dispatch runs batches of the wire workloads' shape on one goroutine
	// for dur, each freshly drawn from the seed (outside the timing), so
	// the percentiles cover the population of in-model cycles rather than
	// a pool's few batches. It returns each batch's dispatch time.
	dispatch := func(tr *Tracer, phase int64, disp *runtime.Dispatcher, dur time.Duration) ([]time.Duration, error) {
		var lat []time.Duration
		var res runtime.Result
		for deadline := time.Now().Add(dur); time.Now().Before(deadline); drawn++ {
			if err := fillBatch(batch, r.seed, drawn, app, procs); err != nil {
				return nil, err
			}
			t0 := time.Now()
			for i := range batch {
				if err := batch[i].Validate(app); err != nil {
					return nil, err
				}
			}
			t1 := time.Now()
			for i := range batch {
				if err := disp.RunInto(&res, batch[i]); err != nil {
					return nil, err
				}
				switches += res.Switches
				violations += len(res.HardViolations)
			}
			t2 := time.Now()
			cycles += len(batch)
			lat = append(lat, t2.Sub(t0))
			if tr != nil && drawn%traceEvery == 0 {
				req := phase + int64(drawn)
				root := tr.NewID()
				tr.Record(0, root, req, "runtime.validate", t0, t1)
				tr.Record(0, root, req, "runtime.run", t1, t2)
				tr.Record(root, 0, req, "runtime.batch", t0, t2)
			}
		}
		r.attempted += len(lat)
		return lat, nil
	}

	// The bookkeeping is allocated before the first heap mark, so that
	// its growth does not show in peak_heap_mb.
	const passCap = 1024
	var (
		synthMS, compileUS                  = make([]float64, 0, passCap), make([]float64, 0, passCap)
		certifyMS, mcMS                     = make([]float64, 0, passCap), make([]float64, 0, passCap)
		reports                             = make([]certifyCount, 0, passCap)
		setupS, p50s                        []float64
		blocks                              = newBlockStats()
		ftqsWall, busy, tracedBusy          time.Duration
		mcScenarios, batches, tracedBatches int
		utility                             float64
		allocs                              uint64
	)
	loopShare := 0.4
	if r.tr != nil {
		loopShare = 0.2
	}
	// Every round sets up afresh and measures each metric, so every
	// metric samples the whole run's span of host conditions.
	for k := 0; k < rounds; k++ {
		// Set-up: from the application to a compiled dispatcher.
		t0 := time.Now()
		tree, err := core.FTQS(apps.CruiseController(), opts)
		if r.op(err) != nil {
			return err
		}
		disp, err := runtime.NewDispatcher(tree)
		if err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		r.check(len(tree.Nodes) == ccM, "cruise controller tree has %d nodes, want %d", len(tree.Nodes), ccM)
		heap.mark()

		// The pipeline, repeated for the round's share of the run.
		deadline := time.Now().Add(r.share(0.6 / rounds))
		for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
			// Each pass starts from the application's JSON, as the CLIs do,
			// and writes it back canonically, as serve does to key its cache.
			a0 := time.Now()
			loaded, err := appio.DecodeApplication(bytes.NewReader(appJSON.Bytes()))
			if r.op(err) != nil {
				return err
			}
			a1 := time.Now()
			canon.Reset()
			if err := r.op(appio.EncodeApplication(&canon, loaded)); err != nil {
				return err
			}
			a2 := time.Now()
			r.check(bytes.Equal(canon.Bytes(), appJSON.Bytes()), "cruise controller JSON changed in a decode/encode round trip")
			req := phasePipeline + int64(len(synthMS))
			r.tr.Record(0, 0, req, "appio.decode", a0, a1)
			r.tr.Record(0, 0, req, "appio.encode", a1, a2)

			o := opts
			o.Sink = sink
			t0 := time.Now()
			tree, err := core.FTQS(loaded, o)
			if r.op(err) != nil {
				return err
			}
			t1 := time.Now()
			d, err := runtime.NewDispatcher(tree, runtime.WithSink(sink))
			if r.op(err) != nil {
				return err
			}
			t2 := time.Now()
			rep, err := certify.Certify(tree, certify.Config{Workers: r.workers, Sink: sink})
			var ce *certify.CounterexampleError
			if errors.As(err, &ce) {
				r.check(false, "certification found a counterexample: %v", err)
			} else if r.op(err) != nil {
				return err
			}
			t3 := time.Now()
			for f := 0; f <= 2; f++ {
				st, err := sim.MonteCarlo(tree, sim.MCConfig{Scenarios: paperScenarios, Faults: f, Seed: paperMCSeed,
					Workers: r.workers, Dispatcher: d, Sink: sink})
				if r.op(err) != nil {
					return err
				}
				r.check(st.HardViolations == 0, "%d hard violations at %d faults", st.HardViolations, f)
				if f == 0 {
					utility = st.MeanUtility
					r.check(st.MeanUtility == pinnedUtilityNoFault, "no-fault utility %v, pinned %v",
						st.MeanUtility, pinnedUtilityNoFault)
				}
				mcScenarios += st.Scenarios
			}
			t4 := time.Now()
			r.check(len(tree.Nodes) == ccM, "cruise controller tree has %d nodes, want %d", len(tree.Nodes), ccM)
			ftqsWall += t1.Sub(t0)
			synthMS = append(synthMS, ms(t1.Sub(t0)))
			compileUS = append(compileUS, us(t2.Sub(t1)))
			certifyMS = append(certifyMS, ms(t3.Sub(t2)))
			mcMS = append(mcMS, ms(t4.Sub(t3)))
			reports = append(reports, certifyCount{rep.Scenarios, rep.Patterns, rep.PatternsPruned})
		}

		// Collect the pipeline's garbage and warm up before timing, so the
		// loop neither shares the cores with a collection nor starts cold.
		goruntime.GC()
		if _, err := dispatch(nil, 0, disp, 50*time.Millisecond); err != nil {
			return err
		}
		var m0, m1 goruntime.MemStats
		goruntime.ReadMemStats(&m0)
		lat, err := dispatch(nil, 0, disp, r.share(loopShare/rounds))
		goruntime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		allocs += m1.Mallocs - m0.Mallocs
		batches += len(lat)
		sorted := durations(lat, time.Millisecond)
		for _, d := range lat {
			busy += d
		}
		p50, _ := nearestRank(sorted, 0.5)
		p50s = append(p50s, p50)
		blocks.add(lat)
		if r.tr != nil {
			traced, err := dispatch(r.tr, phaseTracedClosed, disp, r.share(0.2/rounds))
			if err != nil {
				return err
			}
			tracedBatches += len(traced)
			for _, d := range traced {
				tracedBusy += d
			}
		}
	}
	r.check(violations == 0, "%d in-model cycles missed a hard deadline", violations)

	if err := blocks.enough("dispatch loop"); err != nil {
		return err
	}
	r.note("dispatch loop: %d batches in %d blocks; whole run %.6g cycles/s, p50 %.6g ms (median over rounds)",
		batches, blocks.n, float64(batches*cyclesPerRequest)/busy.Seconds(), median(p50s))
	r.note("pipeline: %d passes; whole-run medians synth %.6g ms, certify %.6g ms, Monte-Carlo %.6g ms",
		len(synthMS), median(synthMS), median(certifyMS), median(mcMS))

	r.e2e["setup_s"] = median(setupS)
	r.e2e["scenarios_per_s"] = blockLen * cyclesPerRequest / blocks.sum.median()
	r.e2e["latency_p50_ms"] = blocks.p50.median()
	r.e2e["latency_p95_ms"] = blocks.p95.median()
	r.e2e["synth_ms"] = median(synthMS)
	r.e2e["certify_ms"] = median(certifyMS)
	r.e2e["mc_scenarios_per_s"] = 3 * paperScenarios / (median(mcMS) / 1000)
	r.e2e["utility_nofault"] = utility
	r.e2e["peak_heap_mb"] = heap.MiB()

	if r.tr == nil {
		return nil
	}
	L := r.layer
	// The wire layers are bypassed.
	for _, name := range []string{
		"client.call_p50_us", "client.call_p99_us", "client.self_p50_us", "client.attempts_per_request",
		"serve.handler_p50_us", "serve.handler_p99_us", "serve.cache_hit_ratio", "serve.rejected",
		"serveapi.request_bytes", "serveapi.response_bytes", "bench.lag_p99_ms",
	} {
		L[name] = 0
	}
	stageLayer(L, r.tr.Spans())
	L["runtime.compile_us"] = median(compileUS)
	L["runtime.switches_per_cycle"] = ratio(float64(switches), float64(cycles))
	L["sim.mc_ms"] = median(mcMS)
	L["sim.scenarios"] = float64(mcScenarios)
	synthesisLayer(L, synthMS, snapshotCounters(m), ftqsWall, r.workers, len(synthMS))
	certifyLayer(L, certifyMS, reports)
	L["proc.allocs_per_op"] = float64(allocs) / float64(max(batches, 1))
	L["bench.trace_overhead_pct"] = overhead(batches, busy, tracedBatches, tracedBusy)
	return nil
}
