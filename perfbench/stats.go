package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a tail
// percentile before it is reported: a p99 read from fewer samples is a
// guess about the slowest handful, not a percentile.
const minTail = 10

// nearestRank returns the nearest-rank q-quantile of ascending samples
// and the number of samples ranked beyond it. An empty slice yields
// (0, 0).
func nearestRank(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return sorted[r-1], n - r
}

// tailPercentile is nearestRank that refuses to answer when fewer than
// minTail samples lie beyond the percentile.
func tailPercentile(sorted []float64, q float64) (float64, bool) {
	v, beyond := nearestRank(sorted, q)
	return v, beyond >= minTail
}

// median of unsorted values (mean of the middle pair for even counts,
// as Python's statistics.median); 0 for none.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := sortedCopy(values)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean of values; 0 for none.
func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

const (
	// blockLen is the number of consecutive samples in a block: the
	// fewest for which a p95 has minTail samples beyond it.
	blockLen = 200
	// quietK is how many of the best blocks a figure is the median of.
	quietK = 5
)

// blockStats reads a run's latencies in blocks of blockLen consecutive
// samples and keeps, for each figure, the quietK best blocks by it. Their
// median is the figure of the run's quietest stretches: on a shared host
// a timing is the program's cost plus whatever the neighbours add, never
// less, and the neighbours come and go over seconds, so the best few of
// many blocks read the program, and the median of them keeps one freak
// block from setting the figure.
type blockStats struct {
	n             int       // blocks seen
	p50, p95, sum *smallest // ms, ms, seconds
}

func newBlockStats() *blockStats {
	return &blockStats{p50: newSmallest(quietK), p95: newSmallest(quietK), sum: newSmallest(quietK)}
}

// add cuts lat into blocks, dropping a partial block at the end.
func (b *blockStats) add(lat []time.Duration) {
	for i := 0; i+blockLen <= len(lat); i += blockLen {
		block := lat[i : i+blockLen]
		var sum time.Duration
		for _, d := range block {
			sum += d
		}
		sorted := durations(block, time.Millisecond)
		p50, _ := nearestRank(sorted, 0.5)
		p95, _ := tailPercentile(sorted, 0.95)
		b.p50.add(p50)
		b.p95.add(p95)
		b.sum.add(sum.Seconds())
		b.n++
	}
}

// enough reports an error when the run had too few blocks for the figures.
func (b *blockStats) enough(what string) error {
	if b.n < quietK {
		return fmt.Errorf("%s: %d blocks of %d, want at least %d (raise --seconds)", what, b.n, blockLen, quietK)
	}
	return nil
}

// smallest keeps the k smallest values added to it, in a fixed amount of
// memory.
type smallest struct {
	k int
	v []float64 // ascending
}

func newSmallest(k int) *smallest { return &smallest{k: k, v: make([]float64, 0, k+1)} }

func (s *smallest) add(x float64) {
	i := sort.SearchFloat64s(s.v, x)
	if i >= s.k {
		return
	}
	s.v = append(s.v, 0)
	copy(s.v[i+1:], s.v[i:])
	s.v[i] = x
	if len(s.v) > s.k {
		s.v = s.v[:s.k]
	}
}

// median of the values kept: of all added when fewer than k were.
func (s *smallest) median() float64 { return median(s.v) }

// quartiles returns the first and third quartile of unsorted values by
// the method of Python's statistics.quantiles(values, n=4) (the default
// "exclusive" method), so the spreads computed here match the ones the
// benchmark's acceptance rule computes. Fewer than two values yield the
// value itself twice.
func quartiles(values []float64) (q1, q3 float64) {
	s := sortedCopy(values)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure every bound in BENCHMARK.json is judged
// against. A zero median yields 0.
func spread(values []float64) float64 {
	med := median(values)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return math.Abs(q3-q1) / math.Abs(med)
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// durations converts latencies to ascending floats in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	sort.Float64s(out)
	return out
}
