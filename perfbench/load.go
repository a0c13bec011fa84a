package main

import (
	"context"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"ftsched/internal/sim"
)

// arrivals is the open-loop schedule over dur, as offsets from the
// phase start: one request per 1/rate seconds on average, each gap drawn
// uniformly from [0.5, 1.5]/rate. The schedule ignores how the server
// fares (the open loop's defining property) while keeping bursts short,
// so tail latency reflects the server rather than arrival clumping. The
// same seed always yields the same schedule.
func arrivals(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := sim.NewRNG(sim.ScenarioSeed(seed, -7))
	var out []time.Duration
	t := 0.0
	for {
		t += (0.5 + rng.Float64()) / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// op sends request j and reports whether it succeeded.
type op func(ctx context.Context, j int) error

// loopStats is what one load phase observed.
type loopStats struct {
	ok, failed int
	elapsed    time.Duration
	// lat holds one latency per open-loop request, failures included: a
	// failed or refused request is charged the time from its due time to
	// the end of the phase, so it counts as missing any latency limit.
	lat []time.Duration
	// lag is how late an idle open-loop sender woke for a due request.
	lag []time.Duration
}

// closedLoop runs clients goroutines that each send their next request
// as soon as the previous one completes, until dur has passed.
func closedLoop(ctx context.Context, clients int, dur time.Duration, send op) loopStats {
	var next atomic.Int64
	var mu sync.Mutex
	var st loopStats
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok, failed := 0, 0
			for time.Now().Before(deadline) && ctx.Err() == nil {
				if err := send(ctx, int(next.Add(1)-1)); err != nil {
					failed++
					continue
				}
				ok++
			}
			mu.Lock()
			st.ok += ok
			st.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	return st
}

// openLoop offers request j at schedule[j] however the previous ones
// fare. Each of clients goroutines takes the next request in schedule
// order whenever it is free and sends it once due, so a stall queues
// the requests behind it exactly as independent users would see.
// Latency runs from each request's due time, not from when a sender got
// to it. lag records, for requests a sender was idle for, how late it
// woke: the generator's own lateness, as opposed to queueing.
func openLoop(ctx context.Context, clients int, schedule []time.Duration, send op) loopStats {
	lat := make([]time.Duration, len(schedule))
	okAt := make([]bool, len(schedule))
	var lagMu sync.Mutex
	var lag []time.Duration
	var next atomic.Int64
	start := time.Now()

	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var late []time.Duration
			for {
				j := int(next.Add(1) - 1)
				if j >= len(schedule) || ctx.Err() != nil {
					break
				}
				due := start.Add(schedule[j])
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
					late = append(late, time.Since(due))
				}
				if err := send(ctx, j); err == nil {
					lat[j] = time.Since(due)
					okAt[j] = true
				}
			}
			lagMu.Lock()
			lag = append(lag, late...)
			lagMu.Unlock()
		}()
	}
	wg.Wait()
	end := time.Now()

	st := loopStats{elapsed: end.Sub(start), lat: lat, lag: lag}
	for j, ok := range okAt {
		if ok {
			st.ok++
			continue
		}
		st.failed++
		st.lat[j] = end.Sub(start.Add(schedule[j]))
	}
	return st
}

// heapPeak tracks the largest live heap seen at the run's phase
// boundaries. Each mark forces a collection first, so the figure is the
// memory the run holds there, independent of when the collector happened
// to run during the phase.
type heapPeak struct{ peak uint64 }

// mark collects garbage and records the live heap.
func (h *heapPeak) mark() {
	var m goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&m)
	h.peak = max(h.peak, m.HeapAlloc)
}

// MiB returns the peak in MiB.
func (h *heapPeak) MiB() float64 { return float64(h.peak) / (1 << 20) }
