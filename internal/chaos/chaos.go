package chaos

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"

	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/obs"
	"ftsched/internal/runtime"
	"ftsched/internal/sim"
)

// Config parametrises a chaos campaign. The zero value is invalid: pick a
// cycle count and at least one injection mode.
type Config struct {
	// Cycles is the number of operation cycles to execute.
	Cycles int
	// Seed makes the campaign reproducible: cycle i derives all random
	// choices from sim.ScenarioSeed(Seed, i).
	Seed int64
	// Workers spreads cycle blocks over goroutines through the same
	// sharded block driver Monte-Carlo evaluation uses (sim.RunBlocks).
	// 0 selects runtime.NumCPU(); 1 forces sequential execution. Reports
	// are bit-identical for any worker count.
	Workers int
	// Policy is the DegradePolicy under test; Clamp selects the
	// envelope's clamped mode (see runtime.EnvelopeConfig).
	Policy runtime.DegradePolicy
	Clamp  bool
	// BaseFaults is the number of in-model faults per cycle fed to the
	// regular scenario sampler (0 <= BaseFaults <= k).
	BaseFaults int
	// OverrunProb is the per-cycle probability of a WCET overrun
	// injection; the victim's duration becomes OverrunFactor times its
	// WCET (at least WCET+1). OverrunFactor must exceed 1 when
	// OverrunProb is positive.
	OverrunProb   float64
	OverrunFactor float64
	// StuckProb is the per-cycle probability of a stuck process: the
	// victim's execution consumes the whole period (an extreme overrun).
	StuckProb float64
	// RegressionProb is the per-cycle probability of a time regression:
	// the victim reports a negative duration.
	RegressionProb float64
	// BurstProb is the per-cycle probability of a fault burst aiming
	// ExtraFaults faults beyond the in-model base; Correlated aims the
	// whole burst at one victim. ExtraFaults must be positive when
	// BurstProb is.
	BurstProb   float64
	ExtraFaults int
	Correlated  bool
	// SoftOnly restricts every victim pool — the in-model base faults
	// included — to soft processes: the regime in which PolicyShedSoft
	// promises hard safety. Without it, faults aimed at hard processes
	// can make the (k+1)-th consumed fault land on hard work, which no
	// amount of soft shedding can absorb.
	SoftOnly bool
	// Sink receives obs.ChaosCycles / obs.ChaosInjections plus whatever
	// the dispatcher emits; nil or obs.NopSink disables instrumentation.
	Sink obs.Sink
}

// ConfigError reports a Config field that fails validation, carrying the
// field name, the rejected value and the violated constraint so CLIs, the
// library facade and the ftserved wire decoder can react to the specific
// field instead of parsing a message — the same discipline as
// sim.ConfigError.
type ConfigError struct {
	// Field is the Config field name ("Cycles", "OverrunFactor", ...).
	Field string
	// Value is the rejected value.
	Value float64
	// Constraint is the violated bound in human-readable form, e.g.
	// "must be positive" or "outside [0,1]".
	Constraint string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("chaos: Config.%s %v %s", e.Field, e.Value, e.Constraint)
}

// Validate normalises the configuration and rejects impossible values with
// a *ConfigError. The BaseFaults upper bound depends on the application
// and is checked by New itself. Every campaign entry point applies
// Validate — library, CLI and ftserved request decoding reject bad input
// identically.
func (c Config) Validate() (Config, error) {
	if c.Cycles <= 0 {
		return c, &ConfigError{Field: "Cycles", Value: float64(c.Cycles), Constraint: "must be positive"}
	}
	if c.Workers < 0 {
		return c, &ConfigError{Field: "Workers", Value: float64(c.Workers), Constraint: "must be non-negative"}
	}
	if c.Workers == 0 {
		c.Workers = goruntime.NumCPU()
	}
	if c.BaseFaults < 0 {
		return c, &ConfigError{Field: "BaseFaults", Value: float64(c.BaseFaults), Constraint: "must be non-negative"}
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"OverrunProb", c.OverrunProb},
		{"StuckProb", c.StuckProb},
		{"RegressionProb", c.RegressionProb},
		{"BurstProb", c.BurstProb},
	} {
		if p.v < 0 || p.v > 1 {
			return c, &ConfigError{Field: p.name, Value: p.v, Constraint: "outside [0,1]"}
		}
	}
	if c.OverrunProb > 0 && c.OverrunFactor <= 1 {
		return c, &ConfigError{Field: "OverrunFactor", Value: c.OverrunFactor, Constraint: "must exceed 1 when OverrunProb is positive"}
	}
	if c.BurstProb > 0 && c.ExtraFaults <= 0 {
		return c, &ConfigError{Field: "ExtraFaults", Value: float64(c.ExtraFaults), Constraint: "must be positive when BurstProb is positive"}
	}
	return c, nil
}

// CycleRecord is the complete, deterministic record of one campaign
// cycle — what was injected, what the envelope reported, and how the
// cycle scored against the containment contract.
type CycleRecord struct {
	// Cycle is the cycle index (also the sim.ScenarioSeed index).
	Cycle int `json:"cycle"`
	// Injected reports whether any out-of-model perturbation was applied;
	// TouchedHard whether a perturbation was aimed at — or an
	// out-of-model violation event materialised on — a hard process.
	Injected    bool `json:"injected,omitempty"`
	TouchedHard bool `json:"touched_hard,omitempty"`
	// Violations is the cycle's envelope event record (a copy).
	Violations []runtime.ViolationEvent `json:"violations,omitempty"`
	// HardMiss: at least one hard process missed its deadline or never
	// ran. Degraded, ShedSlack and OverrunTotal mirror the Result fields.
	HardMiss     bool       `json:"hard_miss,omitempty"`
	Degraded     bool       `json:"degraded,omitempty"`
	ShedSlack    model.Time `json:"shed_slack,omitempty"`
	OverrunTotal model.Time `json:"overrun_total,omitempty"`
	// Breach: under PolicyShedSoft, a hard miss in a cycle whose
	// injections and materialised out-of-model events touched only soft
	// processes although the overrun total was covered (clamped, or
	// within the shed slack) — a containment-contract violation.
	Breach bool `json:"breach,omitempty"`
	// InModelMiss: a hard miss with no injection at all — an in-model
	// scheduler bug, certifiable with internal/certify.
	InModelMiss bool `json:"in_model_miss,omitempty"`
	// DetectionGap: a duration perturbation reached an executing process
	// but no matching violation event was reported.
	DetectionGap bool `json:"detection_gap,omitempty"`
	// Strict is the typed error PolicyStrict returned, if any.
	Strict *runtime.EnvelopeError `json:"strict,omitempty"`
	// Panic carries the recovered panic message of the cycle ("" if the
	// dispatch path behaved).
	Panic string `json:"panic,omitempty"`
}

// Report aggregates a campaign. All counters are folded from Records in
// cycle order, so reports are bit-identical across worker counts.
type Report struct {
	// Cycles echoes the cycle count; Injected counts perturbed cycles.
	Cycles   int `json:"cycles"`
	Injected int `json:"injected"`
	// Event totals across all cycles, by kind.
	Overruns        int `json:"overruns"`
	ExtraFaults     int `json:"extra_faults"`
	TimeRegressions int `json:"time_regressions"`
	BudgetExhausted int `json:"budget_exhausted"`
	// Degraded counts cycles PolicyShedSoft shed; StrictErrors counts
	// typed *runtime.EnvelopeError returns under PolicyStrict.
	Degraded     int `json:"degraded"`
	StrictErrors int `json:"strict_errors"`
	// HardMisses counts cycles with a hard violation; InModelMisses,
	// Breaches, DetectionGaps and Panics are the contract scores — all
	// four must be zero for a healthy containment layer (hard misses are
	// only legitimate when the injection itself touched hard processes or
	// overran beyond the recovered slack).
	HardMisses    int `json:"hard_misses"`
	InModelMisses int `json:"in_model_misses"`
	Breaches      int `json:"breaches"`
	DetectionGaps int `json:"detection_gaps"`
	Panics        int `json:"panics"`
	// Records holds every cycle, in order.
	Records []CycleRecord `json:"records"`
}

// injection is the per-cycle perturbation summary the contract checks
// need; durVictims is reused worker-local scratch.
type injection struct {
	any         bool
	touchedHard bool
	durVictims  []model.ProcessID
}

// Campaign is a compiled chaos campaign: the dispatcher is built once
// (with the envelope under test) and reused across Run calls. A Campaign
// is safe for concurrent use.
type Campaign struct {
	cfg  Config
	tree *core.Tree
	app  *model.Application
	d    *runtime.Dispatcher
	sink obs.Sink
	// execPool: processes of the root schedule; injPool: the victim pool
	// for both the base sampler and the injections (the soft subset of
	// execPool when Config.SoftOnly).
	execPool []model.ProcessID
	injPool  []model.ProcessID
}

// New validates cfg and compiles tree with the envelope under test.
func New(tree *core.Tree, cfg Config) (*Campaign, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	app := tree.App
	if cfg.BaseFaults > app.K() {
		return nil, fmt.Errorf("chaos: BaseFaults %d outside [0, k=%d]", cfg.BaseFaults, app.K())
	}
	var sink obs.Sink
	if obs.Live(cfg.Sink) {
		sink = cfg.Sink
	}
	d, err := runtime.NewDispatcher(tree,
		runtime.WithEnvelope(runtime.EnvelopeConfig{Policy: cfg.Policy, Clamp: cfg.Clamp}),
		runtime.WithSink(sink))
	if err != nil {
		return nil, err
	}
	c := &Campaign{cfg: cfg, tree: tree, app: app, d: d, sink: sink}
	for _, e := range tree.Root().Schedule.Entries {
		c.execPool = append(c.execPool, e.Proc)
		if !cfg.SoftOnly || app.Proc(e.Proc).Kind == model.Soft {
			c.injPool = append(c.injPool, e.Proc)
		}
	}
	if len(c.injPool) == 0 {
		return nil, fmt.Errorf("chaos: empty injection victim pool (SoftOnly=%v, %d root entries)",
			cfg.SoftOnly, len(c.execPool))
	}
	return c, nil
}

// Run executes the whole campaign; see RunContext.
func (c *Campaign) Run() (*Report, error) {
	return c.RunContext(context.Background())
}

// RunContext executes Config.Cycles seeded cycles through the compiled
// dispatcher, spread over Config.Workers goroutines by the shared batch
// driver (sim.RunBlocks), and folds the records into a Report. Each cycle
// reseeds a per-cycle sim.RNG from sim.ScenarioSeed and records into its
// own slot, so the report is bit-identical for a given seed across worker
// counts and reruns. The error is a validation or cancellation error —
// never a containment finding: panics, strict errors, misses and breaches
// are scored on the Report.
func (c *Campaign) RunContext(ctx context.Context) (*Report, error) {
	cfg := c.cfg
	records := make([]CycleRecord, cfg.Cycles)
	err := sim.RunBlocks(ctx, cfg.Cycles, cfg.Workers, func(int) func(block, lo, hi int) error {
		var rng sim.RNG
		var sc runtime.Scenario
		var res runtime.Result
		var inj injection
		return func(_, lo, hi int) error {
			for i := lo; i < hi; i++ {
				rng.Reseed(sim.ScenarioSeed(cfg.Seed, i))
				if err := sim.SampleRNGInto(&sc, c.app, &rng, cfg.BaseFaults, c.injPool); err != nil {
					return err
				}
				c.perturb(&sc, &rng, &inj)
				c.cycle(i, &records[i], &res, sc, &inj)
			}
			return nil
		}
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{Cycles: cfg.Cycles, Records: records}
	for i := range records {
		rec := &records[i]
		if rec.Injected {
			rep.Injected++
		}
		for _, ev := range rec.Violations {
			switch ev.Kind {
			case runtime.WCETOverrun:
				rep.Overruns++
			case runtime.ExtraFault:
				rep.ExtraFaults++
			case runtime.TimeRegression:
				rep.TimeRegressions++
			case runtime.BudgetExhausted:
				rep.BudgetExhausted++
			}
		}
		if rec.Degraded {
			rep.Degraded++
		}
		if rec.Strict != nil {
			rep.StrictErrors++
		}
		if rec.HardMiss {
			rep.HardMisses++
		}
		if rec.InModelMiss {
			rep.InModelMisses++
		}
		if rec.Breach {
			rep.Breaches++
		}
		if rec.DetectionGap {
			rep.DetectionGaps++
		}
		if rec.Panic != "" {
			rep.Panics++
		}
	}
	if c.sink != nil {
		c.sink.Add(obs.ChaosCycles, int64(rep.Cycles))
		c.sink.Add(obs.ChaosInjections, int64(rep.Injected))
	}
	return rep, nil
}

// perturb applies the configured out-of-model injections to an in-model
// base scenario. The draw sequence is fixed (overrun, stuck, regression,
// burst), so a cycle's perturbation depends only on its seed.
func (c *Campaign) perturb(sc *runtime.Scenario, rng *sim.RNG, inj *injection) {
	inj.any = false
	inj.touchedHard = false
	inj.durVictims = inj.durVictims[:0]
	hit := func(p model.ProcessID) {
		inj.any = true
		if c.app.Proc(p).Kind == model.Hard {
			inj.touchedHard = true
		}
	}
	if c.cfg.OverrunProb > 0 && rng.Float64() < c.cfg.OverrunProb {
		p := c.injPool[rng.Intn(len(c.injPool))]
		wcet := c.app.Proc(p).WCET
		dur := model.Time(float64(wcet) * c.cfg.OverrunFactor)
		if dur <= wcet {
			dur = wcet + 1
		}
		sc.Durations[p] = dur
		inj.durVictims = append(inj.durVictims, p)
		hit(p)
	}
	if c.cfg.StuckProb > 0 && rng.Float64() < c.cfg.StuckProb {
		p := c.injPool[rng.Intn(len(c.injPool))]
		sc.Durations[p] = c.app.Period() + 1
		inj.durVictims = append(inj.durVictims, p)
		hit(p)
	}
	if c.cfg.RegressionProb > 0 && rng.Float64() < c.cfg.RegressionProb {
		p := c.injPool[rng.Intn(len(c.injPool))]
		sc.Durations[p] = -model.Time(1 + rng.Intn(int(c.app.Proc(p).WCET)+1))
		inj.durVictims = append(inj.durVictims, p)
		hit(p)
	}
	if c.cfg.BurstProb > 0 && rng.Float64() < c.cfg.BurstProb {
		// Aim the burst past the in-model budget: k - BaseFaults faults
		// fill the remaining bound, ExtraFaults exceed it.
		add := c.app.K() - c.cfg.BaseFaults + c.cfg.ExtraFaults
		victim := c.injPool[rng.Intn(len(c.injPool))]
		for f := 0; f < add; f++ {
			if !c.cfg.Correlated {
				victim = c.injPool[rng.Intn(len(c.injPool))]
			}
			sc.FaultsAt[victim]++
			hit(victim)
		}
		sc.NFaults += add
	}
}

// cycle executes one perturbed scenario and scores it, converting any
// panic in the dispatch path into a record instead of crashing the
// campaign.
func (c *Campaign) cycle(i int, rec *CycleRecord, res *runtime.Result, sc runtime.Scenario, inj *injection) {
	rec.Cycle = i
	rec.Injected = inj.any
	rec.TouchedHard = inj.touchedHard

	err, panicked := c.dispatch(res, sc)
	if panicked != "" {
		rec.Panic = panicked
		return
	}
	if err != nil {
		var envErr *runtime.EnvelopeError
		if !errors.As(err, &envErr) {
			// Impossible for well-sized scenarios; surface loudly rather
			// than mis-scoring the cycle.
			rec.Panic = "unexpected dispatch error: " + err.Error()
			return
		}
		rec.Strict = envErr
	}
	rec.HardMiss = len(res.HardViolations) > 0
	rec.Degraded = res.Degraded
	rec.ShedSlack = res.ShedSlack
	rec.OverrunTotal = res.OverrunTotal
	if len(res.Violations) > 0 {
		rec.Violations = append([]runtime.ViolationEvent(nil), res.Violations...)
	}
	// Aimed injections and materialised excursions can land on different
	// processes: a fault burst aimed at soft work may vanish with its
	// abandoned victims and promote an in-model fault on a hard process
	// into the (k+1)-th consumed one. TouchedHard therefore also covers
	// where the out-of-model events actually surfaced.
	for _, ev := range rec.Violations {
		if ev.Kind != runtime.BudgetExhausted && c.app.Proc(ev.Proc).Kind == model.Hard {
			rec.TouchedHard = true
		}
	}

	// Detection completeness: every duration perturbation that reached an
	// executing process must surface as a violation event. Victims a tree
	// switch (or a shed, or a strict abort) kept from running are exempt —
	// a perturbation that never executes is invisible by design.
	for _, p := range inj.durVictims {
		if res.Outcomes[p] == runtime.NotScheduled {
			continue
		}
		found := false
		for _, ev := range rec.Violations {
			if ev.Proc == p && (ev.Kind == runtime.WCETOverrun || ev.Kind == runtime.TimeRegression) {
				found = true
				break
			}
		}
		if !found {
			rec.DetectionGap = true
		}
	}

	if rec.HardMiss {
		if !inj.any {
			rec.InModelMiss = true
		} else if c.cfg.Policy == runtime.PolicyShedSoft && !rec.TouchedHard {
			// The excursions touched only soft processes. The miss is a
			// contract breach unless the materialised overrun total
			// exceeded the slack shedding recovered. Under Clamp the
			// total is zero by construction — the executed timeline
			// stays in-model — so no overrun ever excuses a miss.
			if res.OverrunTotal <= res.ShedSlack {
				rec.Breach = true
			}
		}
	}
}

// Scenario re-derives the exact perturbed scenario of cycle i — the
// deterministic counterpart of what RunContext executed — so offending
// cycles can be exported as counterexample records and replayed.
func (c *Campaign) Scenario(i int) (runtime.Scenario, error) {
	var sc runtime.Scenario
	if i < 0 || i >= c.cfg.Cycles {
		return sc, fmt.Errorf("chaos: cycle %d outside [0, %d)", i, c.cfg.Cycles)
	}
	rng := sim.NewRNG(sim.ScenarioSeed(c.cfg.Seed, i))
	if err := sim.SampleRNGInto(&sc, c.app, &rng, c.cfg.BaseFaults, c.injPool); err != nil {
		return sc, err
	}
	var inj injection
	c.perturb(&sc, &rng, &inj)
	return sc, nil
}

// dispatch runs one scenario, converting a panic into a message.
func (c *Campaign) dispatch(res *runtime.Result, sc runtime.Scenario) (err error, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprint(r)
		}
	}()
	err = c.d.RunInto(res, sc)
	return
}

// Run is the one-shot form: compile a campaign for tree and execute it.
func Run(tree *core.Tree, cfg Config) (*Report, error) {
	c, err := New(tree, cfg)
	if err != nil {
		return nil, err
	}
	return c.Run()
}

// RunContext is Run honouring cancellation.
func RunContext(ctx context.Context, tree *core.Tree, cfg Config) (*Report, error) {
	c, err := New(tree, cfg)
	if err != nil {
		return nil, err
	}
	return c.RunContext(ctx)
}
