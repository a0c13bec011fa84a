package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"ftsched/internal/apps"
	"ftsched/internal/certify"
	"ftsched/internal/core"
	"ftsched/internal/gen"
	"ftsched/internal/model"
	"ftsched/internal/obs"
	"ftsched/internal/runtime"
	"ftsched/internal/sim"
)

// EnergyConfig parametrises the heterogeneous-platform study: an extension
// experiment beyond the paper (which assumes a single computation node)
// answering "what do utility, energy and the certified fault bound look
// like when the same application runs on a low-power core with recoveries
// offloaded to a high-performance core?". Each workload is synthesised and
// evaluated twice — on the canonical single-core platform and on the
// two-core LP+HP platform with the deterministic biased mapping — through
// the same FTQS pipeline and the same mapped dispatcher.
type EnergyConfig struct {
	// Apps is the number of generated applications evaluated on top of the
	// three fixtures (Fig. 1, Fig. 8, cruise controller).
	Apps int
	// Processes is the size of each generated application.
	Processes int
	// M bounds the FTQS tree.
	M int
	// Scenarios is the Monte-Carlo sample per configuration.
	Scenarios int
	// Faults is the number of faults injected per scenario, clamped to each
	// application's k.
	Faults int
	Seed   int64
	// Workers bounds synthesis, evaluation and certification goroutines
	// (0 = GOMAXPROCS); results are identical for any value.
	Workers int
	// Sink receives synthesis, simulation and certification events (nil
	// disables instrumentation; results are identical either way).
	Sink obs.Sink
}

// DefaultEnergy returns a CI-friendly configuration.
func DefaultEnergy() EnergyConfig {
	return EnergyConfig{
		Apps:      2,
		Processes: 10,
		M:         16,
		Scenarios: 500,
		Faults:    1,
		Seed:      11,
	}
}

// heteroPlatform is the reference two-core platform of the study: a
// low-power unit-speed core and a high-performance core twice as fast at
// three times the active power. The biased mapping places every primary on
// the LP core and every re-execution on the HP core, so the energy price
// of fault tolerance is paid only when faults actually occur.
func heteroPlatform() *model.Platform {
	return model.MustNewPlatform(
		model.Core{Name: "lp", Speed: 1, PowerActive: 1, PowerIdle: 0.05},
		model.Core{Name: "hp", Speed: 2, PowerActive: 3, PowerIdle: 0.15},
	)
}

// EnergyRow is one (application, platform) evaluation.
type EnergyRow struct {
	App      string
	Platform string
	// Utility is the mean Monte-Carlo utility under the configured fault
	// injection; Faults echoes the clamped per-application count.
	Utility float64
	Faults  int
	// MeanEnergy is the mean per-cycle platform energy over the same
	// scenarios, split into its active and idle summands.
	MeanEnergy, MeanActive, MeanIdle float64
	// Cores and CoreEnergy give the per-core energy split of the nominal
	// (all-AET, fault-free) cycle through the compiled dispatcher.
	Cores      []string
	CoreEnergy []float64
	// CertifiedK is the largest fault count in [1, k] for which the
	// exhaustive certification engine proves every hard deadline, or 0 if
	// only the fault-free nominal is guaranteed.
	CertifiedK int
}

// EnergyResult aggregates the study.
type EnergyResult struct {
	Rows []EnergyRow
	Cfg  EnergyConfig
}

// Energy runs the study: fixtures first, then generated applications, each
// on the canonical platform and on heteroPlatform.
func Energy(cfg EnergyConfig) (*EnergyResult, error) {
	type workload struct {
		name string
		app  *model.Application
	}
	loads := []workload{
		{"paper-fig1", apps.Fig1()},
		{"paper-fig8", apps.Fig8()},
		{"cruise-ctrl", apps.CruiseController()},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for a := 0; a < cfg.Apps; a++ {
		app, err := generateSchedulable(rng, gen.Default(cfg.Processes), 50)
		if err != nil {
			return nil, err
		}
		loads = append(loads, workload{fmt.Sprintf("gen-%02d", a), app})
	}
	hetero := heteroPlatform()
	res := &EnergyResult{Cfg: cfg}
	for _, wl := range loads {
		seed := cfg.Seed + int64(len(res.Rows))
		single, err := energyRow(wl.name, "1-core", wl.app, cfg, seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s on 1-core: %w", wl.name, err)
		}
		res.Rows = append(res.Rows, single)
		mapped, err := wl.app.WithPlatform(hetero, model.BiasedMapping(wl.app, hetero))
		if err != nil {
			return nil, err
		}
		het, err := energyRow(wl.name, "lp+hp", mapped, cfg, seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s on lp+hp: %w", wl.name, err)
		}
		res.Rows = append(res.Rows, het)
	}
	return res, nil
}

func energyRow(name, platName string, app *model.Application, cfg EnergyConfig, seed int64) (EnergyRow, error) {
	tree, err := core.FTQS(app, core.FTQSOptions{M: cfg.M, Workers: cfg.Workers, Sink: cfg.Sink})
	if err != nil {
		return EnergyRow{}, err
	}
	faults := cfg.Faults
	if faults > app.K() {
		faults = app.K()
	}
	st, err := sim.MonteCarlo(tree, sim.MCConfig{
		Scenarios: cfg.Scenarios, Faults: faults, Seed: seed,
		Workers: cfg.Workers, Sink: cfg.Sink,
	})
	if err != nil {
		return EnergyRow{}, err
	}
	if st.HardViolations > 0 {
		return EnergyRow{}, fmt.Errorf("%d hard-deadline violations (faults=%d)", st.HardViolations, faults)
	}
	nominal, err := nominalCoreEnergy(tree)
	if err != nil {
		return EnergyRow{}, err
	}
	ck, err := certifiedK(tree, cfg.Workers, cfg.Sink)
	if err != nil {
		return EnergyRow{}, err
	}
	plat := app.Platform()
	cores := make([]string, plat.NCores())
	for c := range cores {
		cores[c] = plat.Core(model.CoreID(c)).Name
	}
	return EnergyRow{
		App: name, Platform: platName,
		Utility: st.MeanUtility, Faults: faults,
		MeanEnergy: st.MeanEnergy, MeanActive: st.MeanEnergyActive, MeanIdle: st.MeanEnergyIdle,
		Cores: cores, CoreEnergy: nominal,
		CertifiedK: ck,
	}, nil
}

// nominalCoreEnergy runs the all-AET fault-free cycle through the compiled
// dispatcher and returns the per-core energy split.
func nominalCoreEnergy(tree *core.Tree) ([]float64, error) {
	d, err := runtime.NewDispatcher(tree)
	if err != nil {
		return nil, err
	}
	app := tree.App
	sc := runtime.Scenario{
		Durations: make([]model.Time, app.N()),
		FaultsAt:  make([]int, app.N()),
	}
	for i := range sc.Durations {
		sc.Durations[i] = app.Proc(model.ProcessID(i)).AET
	}
	res, err := d.Run(sc)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(res.CoreEnergy))
	copy(out, res.CoreEnergy)
	return out, nil
}

// certifiedK finds the largest fault count in [1, k] the exhaustive
// certification engine proves safe, descending from k; a counterexample
// demotes to the next bound, any other failure aborts. (The engine treats
// MaxFaults 0 as "use k", so the fault-free nominal — guaranteed by FTSS
// schedulability — is reported as 0 without a run.)
func certifiedK(tree *core.Tree, workers int, sink obs.Sink) (int, error) {
	for f := tree.App.K(); f >= 1; f-- {
		_, err := certify.Certify(tree, certify.Config{MaxFaults: f, Workers: workers, Sink: sink})
		if err == nil {
			return f, nil
		}
		var ce *certify.CounterexampleError
		if !errors.As(err, &ce) {
			return 0, err
		}
	}
	return 0, nil
}

// Format renders the study.
func (r *EnergyResult) Format() string {
	var sb strings.Builder
	sb.WriteString("Energy on heterogeneous platforms — biased mapping\n")
	sb.WriteString("(primaries on the low-power core, re-executions on the high-performance core;\n")
	sb.WriteString(" energy = Σ busy·P_active + idle·P_idle per core; nominal = all-AET fault-free cycle)\n")
	sb.WriteString("app           platform   flt   utility     energy     active       idle   cert-k   nominal per-core\n")
	for _, row := range r.Rows {
		parts := make([]string, len(row.Cores))
		for c := range row.Cores {
			parts[c] = fmt.Sprintf("%s=%.1f", row.Cores[c], row.CoreEnergy[c])
		}
		fmt.Fprintf(&sb, "%-13s %-8s   %3d   %7.2f   %8.1f   %8.1f   %8.1f   %6d   %s\n",
			row.App, row.Platform, row.Faults, row.Utility,
			row.MeanEnergy, row.MeanActive, row.MeanIdle,
			row.CertifiedK, strings.Join(parts, " "))
	}
	return sb.String()
}
