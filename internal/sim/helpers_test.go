package sim

import (
	"testing"

	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/runtime"
)

// testRun executes one scenario, failing the test on the typed errors the
// dispatcher can return (impossible for the well-formed trees and
// correctly sized scenarios these tests build).
func testRun(t testing.TB, tree *core.Tree, sc runtime.Scenario) runtime.Result {
	t.Helper()
	d, err := runtime.NewDispatcher(tree)
	if err != nil {
		t.Fatal(err)
	}
	r, err := d.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// mustSample draws one scenario from rng, failing the test on a
// *SampleError (impossible for the in-bounds requests these tests make).
func mustSample(t testing.TB, app *model.Application, rng *RNG, nFaults int, candidates []model.ProcessID) runtime.Scenario {
	t.Helper()
	var sc runtime.Scenario
	if err := SampleRNGInto(&sc, app, rng, nFaults, candidates); err != nil {
		t.Fatal(err)
	}
	return sc
}
