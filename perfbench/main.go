// Command ftbench is the repository's benchmark: one command that runs a
// named workload against the scheduler end to end, checks its outputs,
// and prints every metric by name with its unit.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload wire-dispatch --seed 1 --seconds 50 --trace 0
//	bash perfbench/run.sh compare .bench_build/base.jsonl .bench_build/ledger.jsonl
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is the separate traced run that reports the per-layer metrics. The
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. The line before it, prefixed "ledger ",
// is the full record stamped with the host (CPU model, nproc,
// GOMAXPROCS), Go version, commit and seed; it is also appended to
// .bench_build/ledger.jsonl, the input of the compare subcommand. The
// traced run writes its spans to .bench_build/traces/.
//
// The exit status is 1 when a correctness check fails (after printing
// the result with correct=false) or the run cannot complete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"time"
)

// outDir holds everything a run leaves behind, relative to the
// checkout root the benchmark runs from.
const outDir = ".bench_build"

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"wire-dispatch": wireDispatch,
	"wire-fleet":    wireFleet,
	"offline-cc":    offlineCC,
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	dur      time.Duration
	workers  int
	// tr is nil in the untraced run.
	tr *Tracer

	e2e   map[string]float64
	layer map[string]float64

	attempted, failed int
	problems          []string
	// notes are informational lines printed with the metrics.
	notes []string
}

// check records a failed correctness check.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// note records an informational line for the run's output.
func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// op counts one attempted operation and whether it failed.
func (r *run) op(err error) error {
	r.attempted++
	if err != nil {
		r.failed++
	}
	return err
}

// share returns the fraction f of the run's measuring time.
func (r *run) share(f float64) time.Duration {
	return time.Duration(f * float64(r.dur))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// stamp identifies where and on what a record was measured.
type stamp struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Time       string `json:"time"`
}

// record is one ledger line.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Seconds  float64 `json:"seconds"`
	Stamp    stamp   `json:"stamp"`
	result
	Notes    []string `json:"notes,omitempty"`
	Problems []string `json:"problems,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "ftbench compare:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload: wire-dispatch, wire-fleet or offline-cc")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 30, "measuring time of the run")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	)
	flag.Parse()
	drive, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "ftbench: need --workload wire-dispatch|wire-fleet|offline-cc, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(filepath.Join(outDir, "traces"), 0o755); err != nil {
		fatal(err)
	}
	r := &run{
		workload: *name, seed: *seed,
		dur:     time.Duration(*seconds * float64(time.Second)),
		workers: goruntime.NumCPU(),
		e2e:     map[string]float64{}, layer: map[string]float64{},
	}
	if *trace == 1 {
		r.tr = NewTracer()
	}
	if err := drive(r); err != nil {
		fatal(fmt.Errorf("%s: %w", *name, err))
	}
	if r.tr != nil {
		path := filepath.Join(outDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := r.tr.WriteFile(path); err != nil {
			fatal(err)
		}
	}

	defs, values := endToEnd, r.e2e
	if r.tr != nil {
		defs, values = perLayer, r.layer
	}
	res := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	st := hostStamp()
	fmt.Printf("ftbench %s seed=%d trace=%d cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		*name, *seed, *trace, st.CPUModel, st.NProc, st.GOMAXPROCS, st.GoVersion, st.Commit)
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			fatal(fmt.Errorf("%s: metric %s was not measured", *name, d.name))
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("  %-30s %14.6g %s\n", d.name, v, d.unit)
	}
	fmt.Printf("  %-30s %14d\n  %-30s %14d\n", "ops_attempted", r.attempted, "ops_failed", r.failed)
	for _, n := range r.notes {
		fmt.Println("  note:", n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "ftbench: check failed:", p)
	}

	rec := record{Workload: *name, Seed: *seed, Trace: *trace == 1, Seconds: *seconds,
		Stamp: st, result: res, Notes: r.notes, Problems: r.problems}
	line, err := json.Marshal(rec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("ledger %s\n", line)
	if err := appendLine(filepath.Join(outDir, "ledger.jsonl"), line); err != nil {
		fatal(err)
	}
	last, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", last)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ftbench:", err)
	os.Exit(1)
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("appending to %s: %w", path, err)
	}
	return f.Close()
}

// hostStamp describes the host, toolchain and source the run measured.
func hostStamp() stamp {
	st := stamp{
		CPUModel:   "unknown",
		NProc:      goruntime.NumCPU(),
		GOMAXPROCS: goruntime.GOMAXPROCS(0),
		GoVersion:  goruntime.Version(),
		Commit:     "unknown",
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				st.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The commit is known only when the run's directory is the top of a
	// git checkout; a copy of the sources nested in some other
	// repository must not borrow that repository's commit.
	out, err := exec.Command("git", "rev-parse", "--show-toplevel", "HEAD").Output()
	wd, werr := os.Getwd()
	if top, head, ok := strings.Cut(strings.TrimSpace(string(out)), "\n"); err == nil && werr == nil && ok && sameDir(top, wd) {
		st.Commit = head
	}
	return st
}

func sameDir(a, b string) bool {
	ai, err1 := os.Stat(a)
	bi, err2 := os.Stat(b)
	return err1 == nil && err2 == nil && os.SameFile(ai, bi)
}
