package core

import (
	"fmt"
	"sort"

	"ftsched/internal/model"
	"ftsched/internal/schedule"
	"ftsched/internal/utility"
)

// Time re-exports the model time base.
type Time = model.Time

// ErrUnschedulable is returned when no f-schedule can guarantee the hard
// deadlines for the requested number of faults.
var ErrUnschedulable = fmt.Errorf("core: application is not schedulable")

// FTSS synthesises the root f-schedule for the application: a static
// schedule ordered by the list-scheduling heuristic of §5.2, with shared
// recovery slack sized for k = app.K() transient faults. Hard deadlines are
// guaranteed for the worst-case execution times; the process order (and the
// dropping decisions) maximise the expected utility for the average
// execution times.
func FTSS(app *model.Application) (*schedule.FSchedule, error) {
	st := newFTSSState(app, nil, nil, 0, app.K())
	entries, err := st.run()
	if err != nil {
		return nil, err
	}
	return &schedule.FSchedule{Entries: entries}, nil
}

// SuffixFTSS completes a partially executed schedule: given the set of
// processes already executed or already dropped, the current time, and the
// remaining fault budget, it returns the f-schedule for the remaining
// processes. FTQS uses it to build the sub-schedules of the quasi-static
// tree; it is exported because it is also the natural building block for an
// (out-of-scope) fully online rescheduler, which the paper uses as the
// "ideal but too slow" comparison point.
func SuffixFTSS(app *model.Application, executed, dropped []model.ProcessID, start Time, kRemaining int) ([]schedule.Entry, error) {
	ex := make([]bool, app.N())
	dr := make([]bool, app.N())
	for _, id := range executed {
		ex[id] = true
	}
	for _, id := range dropped {
		dr[id] = true
	}
	st := newFTSSState(app, ex, dr, start, kRemaining)
	return st.run()
}

// suffixFTSSSet is SuffixFTSS with the executed/dropped state as bitsets,
// the representation FTQS carries end-to-end.
func suffixFTSSSet(app *model.Application, executed, dropped model.ProcSet, start Time, kRemaining int) ([]schedule.Entry, error) {
	ex := make([]bool, app.N())
	dr := make([]bool, app.N())
	for id := 0; id < app.N(); id++ {
		pid := model.ProcessID(id)
		if executed.Has(pid) {
			ex[id] = true
		}
		if dropped.Has(pid) {
			dr[id] = true
		}
	}
	st := newFTSSState(app, ex, dr, start, kRemaining)
	return st.run()
}

// ftssState carries the list-scheduler state of one FTSS run.
type ftssState struct {
	app   *model.Application
	kRem  int  // faults still to tolerate
	start Time // absolute time at which the (suffix) schedule begins

	entries   []schedule.Entry // placed so far (suffix only)
	nowE      Time             // AET-based clock for utility projections
	scheduled []bool           // executed before start, or placed
	dropped   []bool
	ready     []model.ProcessID // the ready list R
}

func newFTSSState(app *model.Application, executed, dropped []bool, start Time, kRem int) *ftssState {
	if executed == nil {
		executed = make([]bool, app.N())
	}
	if dropped == nil {
		dropped = make([]bool, app.N())
	}
	st := &ftssState{
		app:       app,
		kRem:      kRem,
		start:     start,
		nowE:      start,
		scheduled: executed,
		dropped:   dropped,
	}
	for id := 0; id < app.N(); id++ {
		pid := model.ProcessID(id)
		if !st.scheduled[id] && !st.dropped[id] && st.predsDone(pid) {
			st.ready = append(st.ready, pid)
		}
	}
	return st
}

// aetOn returns the expected fault-free attempt time of p on its primary
// core. The utility projections keep a scalar expected-time clock even on
// mapped platforms — the projection is a ranking heuristic, and the exact
// mapped timeline is enforced separately by schedule.CheckSchedulable —
// but the durations feeding the clock are speed-scaled and inflated by
// the recovery model's per-attempt checkpoint overheads, so low-power-core
// and checkpoint-heavy placements are priced honestly. Identity on the
// canonical platform under re-execution.
func (st *ftssState) aetOn(p model.ProcessID) Time {
	return st.app.Recovery().AttemptTime(st.rawAETOn(p))
}

// rawAETOn is the speed-scaled expected execution time on the primary
// core, without attempt overheads (the quantity checkpoint segment
// geometry is computed over).
func (st *ftssState) rawAETOn(p model.ProcessID) Time {
	return st.app.Platform().Scale(st.app.CoreOf(p), st.app.Proc(p).AET)
}

// recAETOn is the expected re-run time after a fault, scaled on the
// recovery core. Recovery re-runs take no checkpoints (a checkpoint
// rollback re-runs only the final, checkpoint-free segment — see
// recoveryBeneficial), so no attempt inflation applies.
func (st *ftssState) recAETOn(p model.ProcessID) Time {
	return st.app.Platform().Scale(st.app.RecoveryCoreOf(p), st.app.Proc(p).AET)
}

func (st *ftssState) predsDone(p model.ProcessID) bool {
	for _, q := range st.app.Preds(p) {
		if !st.scheduled[q] && !st.dropped[q] {
			return false
		}
	}
	return true
}

// run executes the FTSS main loop (paper Fig. 8).
func (st *ftssState) run() ([]schedule.Entry, error) {
	for len(st.ready) > 0 {
		st.determineDropping()
		if len(st.ready) == 0 {
			continue // everything ready was dropped; successors now ready
		}
		sched := st.schedulableSet()
		for len(sched) == 0 {
			// Sacrificing a re-execution of an already placed soft
			// process only costs fault-scenario utility, whereas
			// dropping a ready process costs its whole utility; try
			// the cheap option first (cf. the paper's Fig. 4
			// discussion, where P3's re-execution is dropped so that
			// P2 can execute).
			if st.stripOneRecovery() {
				sched = st.schedulableSet()
				continue
			}
			if !st.forcedDropping() {
				return nil, st.unschedulable()
			}
			if len(st.ready) == 0 {
				break
			}
			sched = st.schedulableSet()
		}
		if len(st.ready) == 0 {
			continue
		}
		if len(sched) == 0 {
			return nil, st.unschedulable()
		}
		best := st.bestProcess(sched)
		st.place(best)
	}
	// Defensive final verification; the per-placement checks imply it.
	if err := schedule.CheckSchedulable(st.app, st.entries, st.start, st.kRem); err != nil {
		return nil, unschedulableFrom(err)
	}
	return st.entries, nil
}

// unschedulable diagnoses why the run is stuck: the placed entries plus
// the bare hard tail is the least-constrained continuation, so its
// CheckSchedulable verdict names the offending process; if that passes, the
// conflict is per-candidate and the first failing S_iH is reported instead.
func (st *ftssState) unschedulable() error {
	cand := append([]schedule.Entry(nil), st.entries...)
	cand = append(cand, st.hardTail(model.NoProcess)...)
	if err := schedule.CheckSchedulable(st.app, cand, st.start, st.kRem); err != nil {
		return unschedulableFrom(err)
	}
	for _, p := range st.ready {
		c := st.candidateWithHardTail(p, st.recoveriesFor(p))
		if err := schedule.CheckSchedulable(st.app, c, st.start, st.kRem); err != nil {
			return unschedulableFrom(err)
		}
	}
	return ErrUnschedulable
}

// removeReady deletes p from the ready list.
func (st *ftssState) removeReady(p model.ProcessID) {
	for i, q := range st.ready {
		if q == p {
			st.ready = append(st.ready[:i], st.ready[i+1:]...)
			return
		}
	}
}

// addReadySuccessors inserts the successors of p that became ready.
func (st *ftssState) addReadySuccessors(p model.ProcessID) {
	for _, s := range st.app.Succs(p) {
		if !st.scheduled[s] && !st.dropped[s] && st.predsDone(s) {
			st.ready = append(st.ready, s)
		}
	}
	// Keep the ready list deterministic.
	sort.Slice(st.ready, func(i, j int) bool { return st.ready[i] < st.ready[j] })
}

// drop marks a soft process as dropped and promotes its ready successors.
func (st *ftssState) drop(p model.ProcessID) {
	st.dropped[p] = true
	st.removeReady(p)
	st.addReadySuccessors(p)
}

// determineDropping implements line 3 of FTSS: every ready soft process is
// evaluated with the dropping heuristic and dropped when executing it does
// not increase the projected utility.
func (st *ftssState) determineDropping() {
	// Iterate over a snapshot: drops mutate the ready list.
	snapshot := append([]model.ProcessID(nil), st.ready...)
	for _, p := range snapshot {
		if st.app.Proc(p).Kind != model.Soft || st.dropped[p] {
			continue
		}
		with, without := st.dropDelta(p)
		if with <= without {
			st.drop(p)
		}
	}
}

// dropDelta builds the two evaluation schedules S_i' (with p) and S_i”
// (without p) over the unscheduled soft processes and returns their
// projected utilities (paper §5.2: "In schedule S_i”, if U(S_i') <=
// U(S_i”), P_i is dropped and the stale value is passed instead").
func (st *ftssState) dropDelta(p model.ProcessID) (with, without float64) {
	with = st.softProjection(model.NoProcess)
	without = st.softProjection(p)
	return with, without
}

// softProjection estimates the utility obtainable from the still
// unscheduled soft processes, assuming they run back-to-back from the
// current expected time, with excluded (if any) additionally dropped.
// The order is chosen greedily by utility density (the same MU measure the
// main loop uses), respecting precedence within the projected set, so the
// estimate reflects the best order the scheduler could realistically pick —
// a plain topological order would systematically undervalue keeping a
// process whose siblings are more urgent. Stale-value coefficients reflect
// the combined dropped set.
func (st *ftssState) softProjection(excluded model.ProcessID) float64 {
	app := st.app
	// Status for stale coefficients: everything that is not dropped is
	// assumed to execute.
	dropped := make([]bool, app.N())
	copy(dropped, st.dropped)
	if excluded != model.NoProcess {
		dropped[excluded] = true
	}
	alpha := staleAlpha(app, dropped)

	remaining := make(map[model.ProcessID]bool)
	for id := 0; id < app.N(); id++ {
		pid := model.ProcessID(id)
		if !st.scheduled[id] && !dropped[id] && app.Proc(pid).Kind == model.Soft {
			remaining[pid] = true
		}
	}
	now := st.nowE
	var total float64
	for len(remaining) > 0 {
		best := model.NoProcess
		bestDensity := 0.0
		var bestDone Time
		for pid := range remaining {
			blocked := false
			for _, q := range app.Preds(pid) {
				if remaining[q] {
					blocked = true
					break
				}
			}
			if blocked {
				continue
			}
			p := app.Proc(pid)
			s := now
			if p.Release > s {
				s = p.Release
			}
			aet := st.aetOn(pid)
			done := s + aet
			density := alpha[pid] * app.UtilityOf(pid).Value(done)
			if aet > 0 {
				density /= float64(aet)
			}
			if best == model.NoProcess || density > bestDensity ||
				(density == bestDensity && pid < best) {
				best, bestDensity, bestDone = pid, density, done
			}
		}
		if best == model.NoProcess {
			break // unreachable for a DAG; defensive
		}
		delete(remaining, best)
		now = bestDone
		total += alpha[best] * app.UtilityOf(best).Value(bestDone)
	}
	return total
}

// staleAlpha computes stale coefficients under the assumption that every
// process outside the dropped set executes.
func staleAlpha(app *model.Application, dropped []bool) []float64 {
	status := make([]utility.StaleStatus, app.N())
	for i := range status {
		if dropped[i] {
			status[i] = utility.Dropped
		}
	}
	alpha, err := app.StaleCoefficients(status)
	if err != nil {
		// Unreachable for a validated application.
		panic(err)
	}
	return alpha
}

// schedulableSet implements GetSchedulable (line 4): the subset A of the
// ready list whose members lead to a schedulable solution. For each ready
// process P_i, the shortest valid schedule S_iH containing P_i and all
// unscheduled hard processes (every other soft process dropped) is checked
// against the hard deadlines and the period, with the remaining fault
// budget.
func (st *ftssState) schedulableSet() []model.ProcessID {
	var out []model.ProcessID
	for _, p := range st.ready {
		if st.leadsToSchedulable(p) {
			out = append(out, p)
		}
	}
	return out
}

func (st *ftssState) leadsToSchedulable(p model.ProcessID) bool {
	cand := st.candidateWithHardTail(p, st.recoveriesFor(p))
	return schedule.Schedulable(st.app, cand, st.start, st.kRem)
}

// recoveriesFor returns the recovery budget a process receives when first
// placed: hard processes must tolerate every remaining fault; soft
// processes start without recoveries (they are added one by one afterwards,
// see addRecoverySlack).
func (st *ftssState) recoveriesFor(p model.ProcessID) int {
	if st.app.Proc(p).Kind == model.Hard {
		return st.kRem
	}
	return 0
}

// candidateWithHardTail builds entries = placed + P_i(f) + unscheduled hard
// processes in deadline order, the schedule S_iH of the paper.
func (st *ftssState) candidateWithHardTail(p model.ProcessID, f int) []schedule.Entry {
	cand := make([]schedule.Entry, 0, len(st.entries)+1+st.app.N())
	cand = append(cand, st.entries...)
	cand = append(cand, schedule.Entry{Proc: p, Recoveries: f})
	cand = append(cand, st.hardTail(p)...)
	return cand
}

// hardTail returns the unscheduled hard processes (other than exclude) in a
// precedence-feasible earliest-deadline order, each with the full remaining
// recovery budget. Deadlines are first tightened along hard→hard edges
// within the set (Blazewicz/Chetto modification, d'_i = min(d_i,
// d'_s − wcet_s)) so that picking the ready process with the smallest
// modified deadline yields a feasibility-optimal order in the classical
// model; edges passing through soft processes impose nothing here because
// S_iH assumes every other soft process dropped (stale inputs).
func (st *ftssState) hardTail(exclude model.ProcessID) []schedule.Entry {
	app := st.app
	inSet := make([]bool, app.N())
	var set []model.ProcessID
	for id := 0; id < app.N(); id++ {
		pid := model.ProcessID(id)
		if pid == exclude || st.scheduled[id] || st.dropped[id] {
			continue
		}
		if app.Proc(pid).Kind != model.Hard {
			continue
		}
		inSet[id] = true
		set = append(set, pid)
	}
	if len(set) == 0 {
		return nil
	}
	// Modified deadlines, reverse topological order.
	dmod := make([]Time, app.N())
	topo := app.Topo()
	for i := len(topo) - 1; i >= 0; i-- {
		pid := topo[i]
		if !inSet[pid] {
			continue
		}
		d := app.Proc(pid).Deadline
		for _, s := range app.Succs(pid) {
			if inSet[s] {
				if cand := dmod[s] - app.Proc(s).WCET; cand < d {
					d = cand
				}
			}
		}
		dmod[pid] = d
	}
	// Precedence-aware EDF: repeatedly take the ready process (all
	// in-set predecessors placed) with the smallest modified deadline.
	placed := make([]bool, app.N())
	tail := make([]schedule.Entry, 0, len(set))
	for len(tail) < len(set) {
		best := model.NoProcess
		for _, pid := range set {
			if placed[pid] {
				continue
			}
			ready := true
			for _, q := range app.Preds(pid) {
				if inSet[q] && !placed[q] {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			if best == model.NoProcess ||
				dmod[pid] < dmod[best] ||
				(dmod[pid] == dmod[best] && pid < best) {
				best = pid
			}
		}
		if best == model.NoProcess {
			break // unreachable for a DAG; defensive
		}
		placed[best] = true
		tail = append(tail, schedule.Entry{Proc: best, Recoveries: st.kRem})
	}
	return tail
}

// stripOneRecovery removes one re-execution from a placed soft entry to
// free shared recovery slack for processes that would otherwise be force-
// dropped. Among the placed soft entries with a recovery budget it picks
// the one whose single recovery occupies the most slack (largest wcet + µ),
// breaking ties towards the most recently placed entry, whose recovery was
// the most marginal decision. Returns false when no recovery is left to
// strip.
func (st *ftssState) stripOneRecovery() bool {
	best := -1
	var bestCost Time
	for i, e := range st.entries {
		if e.Recoveries == 0 || st.app.Proc(e.Proc).Kind != model.Soft {
			continue
		}
		cost := st.app.WorstRecoveryCost(e.Proc)
		if best < 0 || cost > bestCost || (cost == bestCost && i > best) {
			best, bestCost = i, cost
		}
	}
	if best < 0 {
		return false
	}
	st.entries[best].Recoveries--
	return true
}

// forcedDropping implements lines 5-9: when no ready process leads to a
// schedulable solution, the soft process whose removal costs the least
// utility is dropped. The paper removes from the ready list; when the
// ready list holds no soft process we extend the rule to any unscheduled
// soft process — a pending soft process can transitively block a hard
// process whose early position the schedulability analysis relies on
// (S_iH assumes all other soft processes dropped), and dropping it is the
// only move that restores consistency. In the limit every soft process is
// dropped and the hard-only schedule remains, so a hard-schedulable
// application can never be declared unschedulable here. Returns false when
// no soft process is left to sacrifice.
func (st *ftssState) forcedDropping() bool {
	pick := func(candidates []model.ProcessID) model.ProcessID {
		best := model.NoProcess
		bestCost := 0.0
		for _, p := range candidates {
			if st.app.Proc(p).Kind != model.Soft {
				continue
			}
			with, without := st.dropDelta(p)
			cost := with - without // utility lost by dropping p
			if best == model.NoProcess || cost < bestCost ||
				(cost == bestCost && p < best) {
				best, bestCost = p, cost
			}
		}
		return best
	}
	if p := pick(st.ready); p != model.NoProcess {
		st.drop(p)
		return true
	}
	var pending []model.ProcessID
	for id := 0; id < st.app.N(); id++ {
		if !st.scheduled[id] && !st.dropped[id] {
			pending = append(pending, model.ProcessID(id))
		}
	}
	if p := pick(pending); p != model.NoProcess {
		st.drop(p)
		return true
	}
	return false
}

// bestProcess implements SoftPriority + GetBestProcess (lines 11-12): the
// schedulable soft process with the highest priority, or — when the ready
// list holds no soft process — the schedulable hard process with the
// earliest deadline.
//
// The priority is a one-step rollout of the scheduler's own greedy
// projection: candidate p scores the utility of "p now, then the best
// greedy continuation of the remaining soft processes". The paper's MU
// function (after Cortés et al. [3], not reproduced there) is a
// utility-density measure; the same density measure orders the greedy
// continuations inside softProjection, and the rollout on top of it scores
// slightly better against the exact optimum (internal/optimal) than
// ranking by density directly.
func (st *ftssState) bestProcess(sched []model.ProcessID) model.ProcessID {
	bestSoft := model.NoProcess
	bestScore := 0.0
	for _, p := range sched {
		proc := st.app.Proc(p)
		if proc.Kind != model.Soft {
			continue
		}
		s := st.nowE
		if proc.Release > s {
			s = proc.Release
		}
		done := s + st.aetOn(p)
		alpha := staleAlpha(st.app, st.dropped)
		score := alpha[p]*st.app.UtilityOf(p).Value(done) +
			st.rolloutProjection(done, p)
		if bestSoft == model.NoProcess || score > bestScore ||
			(score == bestScore && p < bestSoft) {
			bestSoft, bestScore = p, score
		}
	}
	if bestSoft != model.NoProcess {
		return bestSoft
	}
	bestHard := model.NoProcess
	for _, p := range sched {
		if st.app.Proc(p).Kind != model.Hard {
			continue
		}
		if bestHard == model.NoProcess ||
			st.app.Proc(p).Deadline < st.app.Proc(bestHard).Deadline {
			bestHard = p
		}
	}
	return bestHard
}

// rolloutProjection estimates the utility of the unscheduled soft
// processes other than placed, projected greedily from time t — the
// continuation value of scheduling placed first.
func (st *ftssState) rolloutProjection(t Time, placed model.ProcessID) float64 {
	savedNow := st.nowE
	savedSched := st.scheduled[placed]
	st.nowE = t
	st.scheduled[placed] = true
	total := st.softProjection(model.NoProcess)
	st.nowE = savedNow
	st.scheduled[placed] = savedSched
	return total
}

// place schedules p at the current position, assigns its recovery slack and
// promotes its successors (lines 13-15).
func (st *ftssState) place(p model.ProcessID) {
	proc := st.app.Proc(p)
	entry := schedule.Entry{Proc: p, Recoveries: st.recoveriesFor(p)}
	st.entries = append(st.entries, entry)
	st.scheduled[p] = true
	st.removeReady(p)

	s := st.nowE
	if proc.Release > s {
		s = proc.Release
	}
	st.nowE = s + st.aetOn(p)

	if proc.Kind == model.Soft {
		st.addRecoverySlack(len(st.entries) - 1)
	}
	st.addReadySuccessors(p)
}

// addRecoverySlack implements line 14 for soft processes: re-executions are
// added one by one while (a) the schedule including all unscheduled hard
// processes stays schedulable and (b) the re-execution survives the
// dropping heuristic — recovering the process in its fault scenario must be
// worth more than abandoning it and letting the remaining soft processes
// start earlier.
func (st *ftssState) addRecoverySlack(idx int) {
	p := st.entries[idx].Proc
	for f := 1; f <= st.kRem; f++ {
		st.entries[idx].Recoveries = f
		cand := append([]schedule.Entry(nil), st.entries...)
		cand = append(cand, st.hardTail(model.NoProcess)...)
		if !schedule.Schedulable(st.app, cand, st.start, st.kRem) {
			st.entries[idx].Recoveries = f - 1
			return
		}
		if !st.recoveryBeneficial(p, f) {
			st.entries[idx].Recoveries = f - 1
			return
		}
	}
}

// recoveryBeneficial compares, in the scenario where p's execution is hit
// by its f-th fault, the projected utility of recovering p against the
// projected utility of dropping it (the failed attempts' time is spent
// either way; the recovery additionally costs the per-fault overhead plus
// another re-run under the application's recovery model).
func (st *ftssState) recoveryBeneficial(p model.ProcessID, f int) bool {
	app := st.app
	rec := app.Recovery()
	// Time at which recovery from the f-th fault would begin: the process
	// started at nowE - attempt time (it was just placed), ran its primary
	// attempt plus f-1 recovery re-runs, each followed by the per-fault
	// overhead (µ, restart latency, or rollback cost). Re-execution and
	// restart re-run the whole expected duration on the recovery core;
	// a checkpoint rollback re-runs only the final segment of the
	// primary-core attempt.
	atP := st.aetOn(p)
	oh := app.RecoveryOverhead(p)
	var rerun Time
	if rec.Kind == model.RecoverCheckpoint {
		rerun = rec.ResumeTime(st.rawAETOn(p))
	} else {
		rerun = st.recAETOn(p)
	}
	startP := st.nowE - atP
	failed := startP + atP + oh + Time(f-1)*(rerun+oh)
	// Option A: recover; p completes at failed + rerun.
	withAlpha := staleAlpha(app, st.dropped)
	doneAt := failed + rerun
	utilWith := withAlpha[p]*app.UtilityOf(p).Value(doneAt) + st.tailProjection(doneAt, model.NoProcess)
	// Option B: abandon p (drop it); the rest starts at failed - overhead
	// (no recovery overhead is paid for a process that is not recovered).
	utilWithout := st.tailProjection(failed-oh, p)
	return utilWith > utilWithout
}

// tailProjection estimates the utility of the unscheduled soft processes
// from a given start time, with extraDropped additionally dropped.
func (st *ftssState) tailProjection(from Time, extraDropped model.ProcessID) float64 {
	saved := st.nowE
	st.nowE = from
	defer func() { st.nowE = saved }()
	return st.softProjection(extraDropped)
}
