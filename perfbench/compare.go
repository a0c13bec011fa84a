package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparator applies.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// compareMain compares two sets of runs: ledger files (or captured
// standard output, whose "ledger " lines are read) of a base and a new
// build. For every workload it prints each metric's median and
// quartiles on both sides and a verdict.
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: compare [-bench BENCHMARK.json] BASE NEW")
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	base, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	next, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}

	type row struct {
		name, unit, better string
		bound              float64
	}
	var e2e, layer []row
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, row{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, row{m.Name, m.Unit, m.Better, 0})
	}
	groups := map[string]bool{}
	for _, rec := range append(append([]record(nil), base...), next...) {
		groups[groupKey(rec)] = true
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	w := bufio.NewWriter(os.Stdout)
	for _, k := range keys {
		rows := e2e
		if strings.HasSuffix(k, "(traced)") {
			rows = layer
		}
		b, n := pick(base, k), pick(next, k)
		fmt.Fprintf(w, "%s: base %d runs, new %d runs\n", k, len(b), len(n))
		fmt.Fprintf(w, "  %-30s %-34s %-34s %8s %6s  %s\n", "metric", "base median [q1 q3]", "new median [q1 q3]", "change", "bound", "verdict")
		for _, m := range rows {
			bv, nv := values(b, m.name), values(n, m.name)
			change := "-"
			if bm := median(bv); bm != 0 && len(nv) > 0 {
				change = fmt.Sprintf("%+.1f%%", (median(nv)-bm)/math.Abs(bm)*100)
			}
			bound := "-"
			if m.bound > 0 {
				bound = fmt.Sprintf("%.0f%%", m.bound*100)
			}
			fmt.Fprintf(w, "  %-30s %-34s %-34s %8s %6s  %s\n", m.name+" ("+m.unit+")",
				summary(bv), summary(nv), change, bound, verdict(bv, nv, m.better, m.bound))
		}
	}
	return w.Flush()
}

// readRecords reads ledger records from a JSON-lines file, also
// accepting captured output whose record lines carry a "ledger "
// prefix. Other lines are skipped.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimPrefix(sc.Text(), "ledger ")
		var rec record
		if json.Unmarshal([]byte(line), &rec) != nil || rec.Workload == "" {
			continue
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return out, nil
}

func groupKey(rec record) string {
	if rec.Trace {
		return rec.Workload + " (traced)"
	}
	return rec.Workload
}

func pick(recs []record, key string) []record {
	var out []record
	for _, r := range recs {
		if groupKey(r) == key {
			out = append(out, r)
		}
	}
	return out
}

func values(recs []record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func summary(v []float64) string {
	if len(v) == 0 {
		return "-"
	}
	q1, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g %.4g] n=%d", median(v), q1, q3, len(v))
}

// verdict judges new against base for one metric:
//
//   - "unresolved" when either side's quartile spread exceeds the bound,
//     unless every new run beats (or loses to) every base run;
//   - "worse" when the new median is worse than the base median by more
//     than the bound;
//   - "improved" when the new median is better by more than the wider
//     quartile spread and the new run wins at least nine in ten of all
//     base/new pairs, ties counting for neither;
//   - "unchanged" otherwise.
//
// A metric without a bound (bound 0, the per-layer metrics) is "worse"
// by the same rule as "improved", mirrored.
func verdict(base, next []float64, better string, bound float64) string {
	if len(base) == 0 || len(next) == 0 {
		return "missing"
	}
	bm := median(base)
	if bm == 0 {
		if median(next) == 0 {
			return "unchanged"
		}
		return "unresolved"
	}
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	gain := sign * (median(next) - bm) / math.Abs(bm)
	noise := math.Max(spread(base), spread(next))
	wins, losses := 0, 0
	for _, b := range base {
		for _, n := range next {
			switch d := sign * (n - b); {
			case d > 0:
				wins++
			case d < 0:
				losses++
			}
		}
	}
	pairs := len(base) * len(next)
	if bound > 0 && noise > bound {
		switch {
		case wins == pairs:
			return "improved"
		case losses == pairs:
			return "worse"
		}
		return "unresolved"
	}
	if bound > 0 && gain < -bound {
		return "worse"
	}
	if gain > noise && float64(wins) >= 0.9*float64(pairs) {
		return "improved"
	}
	if bound == 0 && -gain > noise && float64(losses) >= 0.9*float64(pairs) {
		return "worse"
	}
	return "unchanged"
}
