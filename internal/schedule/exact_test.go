package schedule

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ftsched/internal/model"
)

// TestExactMatchesGreedyWithoutReleases: for release-free schedules both
// analyses must agree exactly, on random instances.
func TestExactMatchesGreedyWithoutReleases(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		k := rng.Intn(4)
		app := model.NewApplication("r", 1_000_000, k, 1+Time(rng.Intn(20)))
		entries := make([]Entry, n)
		for i := 0; i < n; i++ {
			w := 1 + Time(rng.Intn(100))
			id := app.AddProcess(model.Process{
				Name: string(rune('A' + i)), Kind: model.Soft,
				BCET: w / 2, AET: w / 2, WCET: w,
				Utility: step(1, 10),
			})
			entries[i] = Entry{Proc: id, Recoveries: rng.Intn(k + 1)}
		}
		if err := app.Validate(); err != nil {
			return false
		}
		g := WorstCaseCompletions(app, entries, 0, k)
		e := worstCaseCompletionsExact(app, entries, 0, k)
		for i := range entries {
			if g.WorstCase[i] != e.WorstCase[i] {
				t.Logf("seed %d entry %d: greedy %d != exact %d", seed, i, g.WorstCase[i], e.WorstCase[i])
				return false
			}
			if g.Start[i] != e.Start[i] || g.Finish[i] != e.Finish[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestExactTighterWithReleases: recoveries that fit into a release gap do
// not delay later entries in the exact analysis, while the greedy bound
// charges them fully.
func TestExactTighterWithReleases(t *testing.T) {
	a := model.NewApplication("rel", 1000, 1, 10)
	// A runs 0..50 worst case; one re-execution would end at 110.
	pa := a.AddProcess(model.Process{Name: "A", Kind: model.Hard, BCET: 10, AET: 30, WCET: 50, Deadline: 200})
	// B is released at 150: A's recovery (ending 110) hides entirely in
	// the gap.
	pb := a.AddProcess(model.Process{Name: "B", Kind: model.Hard, BCET: 10, AET: 15, WCET: 20, Deadline: 300, Release: 150})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	entries := []Entry{{pa, 1}, {pb, 1}}
	g := WorstCaseCompletions(a, entries, 0, 1)
	e := worstCaseCompletionsExact(a, entries, 0, 1)
	// Greedy: finish(B) = 170 no-fault, + max recovery (60) = 230.
	if g.WorstCase[1] != 230 {
		t.Errorf("greedy WCC(B) = %d, want 230", g.WorstCase[1])
	}
	// Exact: worst is the fault on B itself: start 150, 20 + 30 = 200;
	// a fault on A ends at 110 < release and costs B nothing.
	if e.WorstCase[1] != 200 {
		t.Errorf("exact WCC(B) = %d, want 200", e.WorstCase[1])
	}
	// A's own worst case is identical in both.
	if g.WorstCase[0] != 110 || e.WorstCase[0] != 110 {
		t.Errorf("WCC(A) = %d/%d, want 110/110", g.WorstCase[0], e.WorstCase[0])
	}
}

// TestExactNeverExceedsGreedy: the exact bound is never above the safe
// greedy bound, with or without releases.
func TestExactNeverExceedsGreedy(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		k := rng.Intn(4)
		app := model.NewApplication("r", 1_000_000, k, 1+Time(rng.Intn(20)))
		entries := make([]Entry, n)
		for i := 0; i < n; i++ {
			w := 1 + Time(rng.Intn(100))
			id := app.AddProcess(model.Process{
				Name: string(rune('A' + i)), Kind: model.Soft,
				BCET: w / 2, AET: w / 2, WCET: w,
				Utility: step(1, 10),
				Release: Time(rng.Intn(400)),
			})
			entries[i] = Entry{Proc: id, Recoveries: rng.Intn(k + 1)}
		}
		if err := app.Validate(); err != nil {
			return false
		}
		g := WorstCaseCompletions(app, entries, 0, k)
		e := worstCaseCompletionsExact(app, entries, 0, k)
		for i := range entries {
			if e.WorstCase[i] > g.WorstCase[i] {
				t.Logf("seed %d: exact %d exceeds greedy %d at %d", seed, e.WorstCase[i], g.WorstCase[i], i)
				return false
			}
			if e.WorstCase[i] < e.Finish[i] {
				t.Logf("seed %d: exact below no-fault finish at %d", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestExactBruteForceWithReleases cross-checks the DP against exhaustive
// fault-allocation enumeration on small release-bearing instances.
func TestExactBruteForceWithReleases(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		k := rng.Intn(3)
		app := model.NewApplication("r", 1_000_000, k, 1+Time(rng.Intn(15)))
		entries := make([]Entry, n)
		for i := 0; i < n; i++ {
			w := 1 + Time(rng.Intn(60))
			id := app.AddProcess(model.Process{
				Name: string(rune('A' + i)), Kind: model.Soft,
				BCET: w, AET: w, WCET: w,
				Utility: step(1, 10),
				Release: Time(rng.Intn(200)),
			})
			entries[i] = Entry{Proc: id, Recoveries: rng.Intn(k + 1)}
		}
		if err := app.Validate(); err != nil {
			return false
		}
		// Brute force: enumerate all fault allocations, propagate.
		var best Time
		var rec func(i int, left int, now Time)
		rec = func(i, left int, now Time) {
			if i == n {
				if now > best {
					best = now
				}
				return
			}
			e := entries[i]
			p := app.Proc(e.Proc)
			maxM := e.Recoveries
			if maxM > left {
				maxM = left
			}
			for m := 0; m <= maxM; m++ {
				st := now
				if p.Release > st {
					st = p.Release
				}
				end := st + p.WCET + Time(m)*(p.WCET+app.MuOf(e.Proc))
				rec(i+1, left-m, end)
			}
		}
		rec(0, k, 0)
		e := worstCaseCompletionsExact(app, entries, 0, k)
		if e.WorstCase[n-1] != best {
			t.Logf("seed %d: DP %d != brute %d", seed, e.WorstCase[n-1], best)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// worstCaseCompletionsExact is the test oracle for the production greedy
// analysis (WorstCaseCompletions): for each entry, the maximum completion
// time over all allocations of at most k faults to the entries' recovery
// budgets, propagating starts through releases exactly. A dynamic program
// maximises, for every entry and every number of consumed faults, the
// release-aware completion time, charging each re-execution of P_i as
// wcet_i + µ_i with at most f_i re-executions of P_i. It is valid only for
// the canonical single-core platform with re-execution recovery: it
// ignores the application's RecoveryModel and Platform, which the
// production analysis threads through.
//
// For release-free schedules it coincides with the greedy bound; across
// release gaps part of a recovery can overlap idle time, so the greedy
// bound is safe but pessimistic and this oracle bounds it from below.
func worstCaseCompletionsExact(app *model.Application, entries []Entry, start Time, k int) Completions {
	n := len(entries)
	c := Completions{
		Start:     make([]Time, n),
		Finish:    make([]Time, n),
		WorstCase: make([]Time, n),
	}
	if n == 0 {
		return c
	}
	// No-fault WCET timing for Start/Finish (same as the greedy
	// analysis).
	s, f := sequential(app, entries, start, func(p model.Process) Time { return p.WCET })
	c.Start, c.Finish = s, f

	// wc[j] = worst completion time of the prefix when exactly <= j
	// faults hit it. Iterate entries, maximising over how many faults
	// hit the current entry.
	const neg = Time(-1)
	wc := make([]Time, k+1)
	next := make([]Time, k+1)
	for j := range wc {
		wc[j] = start
	}
	for i, e := range entries {
		p := app.Proc(e.Proc)
		mu := app.MuOf(e.Proc)
		for j := 0; j <= k; j++ {
			next[j] = neg
			maxHere := e.Recoveries
			if maxHere > j {
				maxHere = j
			}
			for m := 0; m <= maxHere; m++ {
				prev := wc[j-m]
				st := prev
				if p.Release > st {
					st = p.Release
				}
				end := st + p.WCET + Time(m)*(p.WCET+mu)
				if end > next[j] {
					next[j] = end
				}
			}
		}
		copy(wc, next)
		// Worst case over any fault count up to k; wc[] is monotone in
		// j by construction (m = 0 is always allowed), so wc[k] is the
		// maximum.
		c.WorstCase[i] = wc[k]
	}
	return c
}
