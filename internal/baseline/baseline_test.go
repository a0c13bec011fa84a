package baseline

import (
	"testing"

	"ftsched/internal/apps"
	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/schedule"
	"ftsched/internal/utility"
)

func TestNonFaultTolerantFig1(t *testing.T) {
	app := apps.Fig1()
	s, err := nonFaultTolerant(app)
	if err != nil {
		t.Fatal(err)
	}
	// Without faults all three processes fit comfortably and the value-
	// maximal order is P1, P3, P2 (utility 60).
	if got := schedule.ExpectedUtility(app, s); got != 60 {
		t.Errorf("utility = %g, want 60", got)
	}
	for _, e := range s.Entries {
		if e.Recoveries != 0 {
			t.Error("non-fault-tolerant schedule must carry no recoveries")
		}
	}
	if len(s.Entries) != 3 {
		t.Errorf("all processes should fit, got %s", s.Format(app))
	}
}

func TestFTSFFig1(t *testing.T) {
	app := apps.Fig1()
	s, err := FTSF(app)
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Validate(app, s); err != nil {
		t.Fatal(err)
	}
	if err := schedule.CheckSchedulable(app, s.Entries, 0, app.K()); err != nil {
		t.Fatalf("FTSF schedule not fault-tolerant: %v", err)
	}
	// Hard P1 gets k recoveries, soft ones none.
	for _, e := range s.Entries {
		want := 0
		if app.Proc(e.Proc).Kind == model.Hard {
			want = app.K()
		}
		if e.Recoveries != want {
			t.Errorf("%s recoveries = %d, want %d", app.Proc(e.Proc).Name, e.Recoveries, want)
		}
	}
	// For Fig. 1 everything still fits: 220 + 80 = 300 <= 300.
	if len(s.Entries) != 3 {
		t.Errorf("no dropping needed, got %s", s.Format(app))
	}
}

// TestFTSFDropsLowestUtility: when the recovery slack of the hard processes
// no longer fits, the soft process with the smallest utility contribution
// goes first.
func TestFTSFDropsLowestUtility(t *testing.T) {
	a := model.NewApplication("drop", 260, 1, 10)
	h := a.AddProcess(model.Process{Name: "H", Kind: model.Hard, BCET: 30, AET: 50, WCET: 70, Deadline: 180})
	cheap := a.AddProcess(model.Process{Name: "Cheap", Kind: model.Soft, BCET: 30, AET: 50, WCET: 70,
		Utility: utility.MustStep([]model.Time{250}, []float64{5})})
	rich := a.AddProcess(model.Process{Name: "Rich", Kind: model.Soft, BCET: 40, AET: 60, WCET: 80,
		Utility: utility.MustStep([]model.Time{250}, []float64{100})})
	a.MustAddEdge(h, cheap)
	a.MustAddEdge(h, rich)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// All three: 220 + 80 = 300 > 260; after dropping Cheap:
	// 150 + 80 = 230 <= 260.
	s, err := FTSF(a)
	if err != nil {
		t.Fatal(err)
	}
	if s.Contains(cheap) {
		t.Errorf("Cheap should be dropped: %s", s.Format(a))
	}
	if !s.Contains(rich) {
		t.Errorf("Rich should survive: %s", s.Format(a))
	}
	if err := schedule.CheckSchedulable(a, s.Entries, 0, 1); err != nil {
		t.Fatal(err)
	}
}

// TestFTSFNeverBeatsFTSSOnPaperApps: by construction FTSS optimises
// dropping and recovery placement jointly; FTSF patches after the fact. On
// the paper fixtures FTSS must be at least as good in expected no-fault
// utility.
func TestFTSFNeverBeatsFTSSOnPaperApps(t *testing.T) {
	for _, app := range []*model.Application{apps.Fig1(), apps.Fig8(), apps.Fig1ReducedPeriod()} {
		fs, err := core.FTSS(app)
		if err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
		bf, err := FTSF(app)
		if err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
		uf := schedule.ExpectedUtility(app, fs)
		ub := schedule.ExpectedUtility(app, bf)
		if ub > uf {
			t.Errorf("%s: FTSF %g beats FTSS %g", app.Name(), ub, uf)
		}
	}
}

// TestFTSFUnschedulable: when even dropping every soft process cannot save
// the hard deadlines, FTSF reports failure.
func TestFTSFUnschedulable(t *testing.T) {
	a := model.NewApplication("un", 1000, 2, 10)
	a.AddProcess(model.Process{Name: "H", Kind: model.Hard, BCET: 50, AET: 60, WCET: 80, Deadline: 100})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := FTSF(a); err == nil {
		t.Fatal("expected unschedulable")
	}
}

// TestFTSFKeepsAllHard: hard processes are never dropped by the patching
// loop.
func TestFTSFKeepsAllHard(t *testing.T) {
	app := apps.Fig8()
	s, err := FTSF(app)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range app.HardIDs() {
		if !s.Contains(h) {
			t.Errorf("hard %s dropped", app.Proc(h).Name)
		}
	}
}
