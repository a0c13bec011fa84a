package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestNearestRank(t *testing.T) {
	cases := []struct {
		n          int
		q          float64
		want       float64
		beyond     int
		reportable bool
	}{
		{10, 0.5, 5, 5, false},
		{1000, 0.5, 500, 500, true},
		{1000, 0.99, 990, 10, true},
		{999, 0.99, 990, 9, false},
		{1100, 0.99, 1089, 11, true},
		{1, 0.99, 1, 0, false},
	}
	for _, c := range cases {
		v, beyond := nearestRank(seq(c.n), c.q)
		if v != c.want || beyond != c.beyond {
			t.Errorf("nearestRank(1..%d, %v) = %v, %d beyond; want %v, %d", c.n, c.q, v, beyond, c.want, c.beyond)
		}
		if _, ok := tailPercentile(seq(c.n), c.q); ok != c.reportable {
			t.Errorf("tailPercentile(1..%d, %v) reportable = %v, want %v", c.n, c.q, ok, c.reportable)
		}
	}
	if v, beyond := nearestRank(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("nearestRank(nil) = %v, %d", v, beyond)
	}
}

// The expected quartiles are Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{seq(10), 2.75, 8.25},
		{[]float64{7, 1, 3}, 1, 7},
		{[]float64{5, 5}, 5, 5},
		{[]float64{10, 12, 11, 30, 9, 10, 11, 10, 12, 11}, 10, 12},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.data)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.data, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := spread(seq(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1 ((8.25-2.75)/5.5)", got)
	}
	// One wild run among ten steady ones barely moves the spread.
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 400}
	if got := spread(steady); got > 0.03 {
		t.Errorf("spread with one outlier = %v, want < 0.03", got)
	}
	if got := spread([]float64{0, 0}); got != 0 {
		t.Errorf("spread of zeros = %v", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSmallest(t *testing.T) {
	// Two freak samples at the bottom and a slow mode above: the median of
	// the five smallest sits in the fast mode, on neither freak.
	s := newSmallest(5)
	for _, v := range []float64{80, 41, 1, 82, 40, 2, 79, 42, 43, 81, 40} {
		s.add(v)
	}
	if !reflect.DeepEqual(s.v, []float64{1, 2, 40, 40, 41}) {
		t.Errorf("kept %v, want the five smallest", s.v)
	}
	if got := s.median(); got != 40 {
		t.Errorf("median = %v, want 40", got)
	}
	few := newSmallest(5)
	for _, v := range []float64{3, 1, 2} {
		few.add(v)
	}
	if got := few.median(); got != 2 {
		t.Errorf("median of fewer than k = %v, want the median of all, 2", got)
	}
}

func TestBlockStats(t *testing.T) {
	// Four whole blocks at 1, 2, 3 and 4 ms and a partial one at 0.5 ms,
	// which is dropped: with quietK = 5, every figure is the median of the
	// four blocks kept.
	var lat []time.Duration
	for _, ms := range []float64{3, 1, 4, 2} {
		for range blockLen {
			lat = append(lat, time.Duration(ms*float64(time.Millisecond)))
		}
	}
	lat = append(lat, make([]time.Duration, blockLen-1)...)
	b := newBlockStats()
	if err := b.enough("test"); err == nil {
		t.Error("enough before any block: no error")
	}
	b.add(lat)
	if b.n != 4 {
		t.Fatalf("%d blocks, want 4", b.n)
	}
	if p50, p95 := b.p50.median(), b.p95.median(); p50 != 2.5 || p95 != 2.5 {
		t.Errorf("p50 %v, p95 %v; want 2.5, 2.5", p50, p95)
	}
	if sum, want := b.sum.median(), 2.5*blockLen/1000; math.Abs(sum-want) > 1e-9 {
		t.Errorf("block time %v s, want %v", sum, want)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		// Two overlapping children cover [10, 60]; the third is
		// clipped to the parent and covers [90, 100].
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// A grandchild is its parent's business, not the root's.
		{ID: 5, Parent: 2, Name: "g", Start: 15, End: 20},
		// A child entirely inside another covers nothing new.
		{ID: 6, Parent: 1, Name: "d", Start: 35, End: 45},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 40, 2: 25, 3: 30, 4: 30, 5: 5, 6: 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestArrivalsDeterministic(t *testing.T) {
	a := arrivals(7, 600, 10*time.Second)
	b := arrivals(7, 600, 10*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different open-loop schedules")
	}
	if reflect.DeepEqual(a, arrivals(8, 600, 10*time.Second)) {
		t.Error("different seeds gave the same schedule")
	}
	if n := len(a); n < 5700 || n > 6300 {
		t.Errorf("%d arrivals in 10s at 600/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 10*time.Second {
			t.Fatalf("arrival %d at %v out of order or past the end", i, a[i])
		}
	}
}

func TestOpenLoopChargesFailures(t *testing.T) {
	schedule := []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	st := openLoop(context.Background(), 2, schedule, func(_ context.Context, j int) error {
		if j == 2 {
			return context.DeadlineExceeded
		}
		return nil
	})
	if st.ok != 3 || st.failed != 1 || len(st.lat) != 4 {
		t.Fatalf("ok %d failed %d lat %d", st.ok, st.failed, len(st.lat))
	}
	// The failed request is charged from its due time (2ms) to the end
	// of the phase, which is after the last due time (3ms).
	if st.lat[2] < time.Millisecond {
		t.Errorf("failed request charged %v, want at least 1ms", st.lat[2])
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	noisy := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	cases := []struct {
		name      string
		next      []float64
		better    string
		bound     float64
		wantValue string
	}{
		{"same", base, "lower", 0.1, "unchanged"},
		{"faster", faster, "lower", 0.1, "improved"},
		{"slower", faster, "higher", 0.1, "worse"},
		{"slower within bound", faster, "higher", 0.25, "unchanged"},
		{"noisy", noisy, "lower", 0.1, "unresolved"},
		{"per-layer slower", faster, "higher", 0, "worse"},
	}
	for _, c := range cases {
		if got := verdict(base, c.next, c.better, c.bound); got != c.wantValue {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.wantValue)
		}
	}
}

// BENCHMARK.json must name exactly the metrics the runs report, with the
// same units and directions.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v\nwant %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v\nwant %v", layer, perLayer)
	}
	// wire-fleet runs by hand only (see README.md); every other workload
	// is listed.
	listed := map[string]bool{"wire-fleet": true}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json lists %s, which the benchmark does not run", w.Name)
		}
		listed[w.Name] = true
	}
	for name := range workloads {
		if !listed[name] {
			t.Errorf("workload %s missing from BENCHMARK.json", name)
		}
	}
}
