// Package schedule implements fault-tolerant static schedules
// ("f-schedules") with shared recovery slack, as introduced in §3 of
// Izosimov et al. (DATE 2008) and inherited from their DATE 2005 paper [7].
//
// An f-schedule is an ordering of (a subset of) the application's processes
// on the single computation node. Execution is non-preemptive, so the
// ordering plus per-process recovery counts describe the schedule
// completely: each process starts when its predecessor entry finishes, and
// completion times are prefix sums over the ordering. Each scheduled
// process P_i carries a recovery count f_i: the number of re-executions the
// schedule's recovery slack can accommodate for P_i. Hard processes always
// carry f_i = k; soft processes carry whatever number of re-executions
// proved both schedulable and beneficial. Soft processes that are not
// scheduled at all are dropped: they produce no utility (α = 0) and their
// successors consume stale values (see package utility).
//
// The ordering must respect the application's polar DAG: a process may only
// appear after all of its scheduled predecessors, and FSchedule.Validate
// rejects anything else.
//
// The recovery slack is shared: the schedule does not reserve
// (wcet_i + µ)·f_i after every process, but only enough slack so that the
// worst allocation of the k transient faults among the scheduled prefix is
// covered. Consequently the worst-case completion of the i-th entry is
//
//	WCC(i) = Σ_{j ≤ i} wcet_j  +  max { Σ_j n_j·(wcet_j + µ_j) :
//	                                    0 ≤ n_j ≤ f_j, Σ_j n_j ≤ k }
//
// which this package evaluates greedily (faults go to the largest
// wcet_j + µ_j first). WorstCaseCompletions is the package's one
// worst-case analysis: it threads the application's RecoveryModel and
// Platform through the bound, and every schedulability check builds on
// it. Across release gaps (merged multi-rate applications) the greedy
// bound stays safe but pessimistic; an exact release-aware dynamic
// program in the package tests serves as its oracle on the canonical
// platform.
package schedule
