package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"ftsched/internal/core"
	"ftsched/internal/gen"
	"ftsched/internal/obs"
	"ftsched/internal/runtime"
	"ftsched/internal/sim"
	"ftsched/internal/stats"
)

// OverheadConfig parametrises the quasi-static vs purely-online comparison
// (paper §1: "the online overhead of quasi-static scheduling is very low,
// compared to traditional online scheduling approaches"). This experiment
// is not a table in the paper, but it substantiates the claim the whole
// approach rests on.
type OverheadConfig struct {
	Apps      int
	Processes int
	M         int
	Scenarios int
	Seed      int64
	// Workers bounds the FTQS synthesis goroutines (0 = GOMAXPROCS).
	Workers int
	// Sink receives synthesis events (nil disables instrumentation;
	// results are identical either way).
	Sink obs.Sink
}

// DefaultOverhead returns a CI-friendly configuration.
func DefaultOverhead() OverheadConfig {
	return OverheadConfig{Apps: 5, Processes: 30, M: 32, Scenarios: 200, Seed: 4}
}

// OverheadResult aggregates the comparison.
type OverheadResult struct {
	Cfg OverheadConfig
	// Utilities normalised to the ideal online rescheduler (= 100).
	UtilFTSS, UtilFTQS, UtilIdeal float64
	// TreeCycleTime is the mean wall-clock time of executing one full
	// cycle through the tree's compiled dispatcher (result bookkeeping
	// included, so it over-states the pure scheduler cost; the one-off
	// compile is excluded).
	TreeCycleTime time.Duration
	// IdealSynthesisTime is the mean wall-clock time the online
	// rescheduler spends synthesising schedules per cycle.
	IdealSynthesisTime time.Duration
	// OverheadFactor is IdealSynthesisTime / TreeCycleTime.
	OverheadFactor float64
}

// Overhead runs the comparison: FTSS (no adaptation), FTQS (table-driven
// adaptation) and the ideal rescheduler (full re-synthesis per step), on
// no-fault scenarios.
func Overhead(cfg OverheadConfig) (*OverheadResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	srng := sim.NewRNG(cfg.Seed)
	res := &OverheadResult{Cfg: cfg}
	var uS, uQ, uI []float64
	var treeTime, synthTime time.Duration
	cycles := 0
	scs := make([]runtime.Scenario, cfg.Scenarios)
	var rs, rq runtime.Result
	for a := 0; a < cfg.Apps; a++ {
		app, err := generateSchedulable(rng, gen.Default(cfg.Processes), 50)
		if err != nil {
			return nil, err
		}
		root, err := core.FTSS(app)
		if err != nil {
			return nil, err
		}
		tree, err := core.FTQSFromRoot(app, root, core.FTQSOptions{M: cfg.M, Workers: cfg.Workers, Sink: cfg.Sink})
		if err != nil {
			return nil, err
		}
		static, err := runtime.NewDispatcher(sim.StaticTree(app, root))
		if err != nil {
			return nil, err
		}
		quasi, err := runtime.NewDispatcher(tree)
		if err != nil {
			return nil, err
		}
		for i := range scs {
			if err := sim.SampleRNGInto(&scs[i], app, &srng, 0, nil); err != nil {
				return nil, err
			}
		}
		// Only the tree's cycles are timed: compiled once above, the
		// dispatcher then pays nothing but the online table lookups.
		var sumS, sumQ, sumI float64
		t0 := time.Now()
		for i := range scs {
			if err := quasi.RunInto(&rq, scs[i]); err != nil {
				return nil, err
			}
			sumQ += rq.Utility
			if len(rq.HardViolations) > 0 {
				return nil, fmt.Errorf("experiments: hard violation in overhead run")
			}
		}
		treeTime += time.Since(t0)
		for i := range scs {
			if err := static.RunInto(&rs, scs[i]); err != nil {
				return nil, err
			}
			sumS += rs.Utility
			ri := sim.RunOnlineReschedule(app, root, scs[i])
			synthTime += ri.SynthesisTime
			sumI += ri.Utility
			if len(ri.HardViolations) > 0 {
				return nil, fmt.Errorf("experiments: hard violation in overhead run")
			}
			cycles++
		}
		n := float64(cfg.Scenarios)
		base := sumI / n
		if base == 0 {
			continue
		}
		uS = append(uS, stats.Ratio(sumS/n, base))
		uQ = append(uQ, stats.Ratio(sumQ/n, base))
		uI = append(uI, 100)
	}
	res.UtilFTSS = stats.Mean(uS)
	res.UtilFTQS = stats.Mean(uQ)
	res.UtilIdeal = stats.Mean(uI)
	if cycles > 0 {
		res.TreeCycleTime = treeTime / time.Duration(cycles)
		res.IdealSynthesisTime = synthTime / time.Duration(cycles)
	}
	if res.TreeCycleTime > 0 {
		res.OverheadFactor = float64(res.IdealSynthesisTime) / float64(res.TreeCycleTime)
	}
	return res, nil
}

// Format renders the comparison.
func (r *OverheadResult) Format() string {
	var sb strings.Builder
	sb.WriteString("Quasi-static vs purely online rescheduling (no-fault scenarios)\n")
	fmt.Fprintf(&sb, "utility (ideal = 100):  FTSS %.1f   FTQS(M=%d) %.1f   ideal %.1f\n",
		r.UtilFTSS, r.Cfg.M, r.UtilFTQS, r.UtilIdeal)
	fmt.Fprintf(&sb, "per-cycle cost: tree execution %v, online synthesis %v (%.0fx)\n",
		r.TreeCycleTime, r.IdealSynthesisTime, r.OverheadFactor)
	return sb.String()
}
