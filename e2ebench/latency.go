package main

import (
	"math"
	"sort"
)

// latencies summarizes a run's latency samples in constant memory, so the
// harness's own storage does not grow with throughput and move the peak
// resident set: a log-bucketed histogram for the median, and for each tail
// percentile p the p-th percentile of every consecutive window of
// 10/(1-p/100) samples, so each window has ten samples beyond it.
type latencies struct {
	hist  []int64
	n     int64
	tails []*windowed
}

// windowed tracks one tail percentile.
type windowed struct {
	p     float64
	win   []float64
	tails []float64
}

// Histogram buckets are 0.1% wide from histLo ms up; a sample reads as its
// bucket's geometric middle, so the median is exact to 0.05%.
const (
	histLo      = 1e-4 // ms
	histGrowth  = 1.001
	histBuckets = 24000 // up to histLo·1.001^24000 ≈ 2.6e6 ms
)

// newLatencies returns an accumulator for the tail percentiles ps.
func newLatencies(ps ...float64) *latencies {
	l := &latencies{hist: make([]int64, histBuckets+1)} // the last bucket holds failures
	for _, p := range ps {
		w := int(math.Ceil(10/(1-p/100) - 1e-9))
		l.tails = append(l.tails, &windowed{p: p, win: make([]float64, 0, w)})
	}
	return l
}

// add records one sample in ms; +Inf marks a failed operation.
func (l *latencies) add(ms float64) {
	l.n++
	b := histBuckets
	if !math.IsInf(ms, 1) {
		b = 0
		if ms > histLo {
			b = min(int(math.Log(ms/histLo)/math.Log(histGrowth)), histBuckets-1)
		}
	}
	l.hist[b]++
	for _, t := range l.tails {
		t.win = append(t.win, ms)
		if len(t.win) == cap(t.win) {
			sort.Float64s(t.win)
			t.tails = append(t.tails, percentile(t.win, t.p))
			t.win = t.win[:0]
		}
	}
}

// count reports the number of samples.
func (l *latencies) count() int64 { return l.n }

// median returns the nearest-rank median; +Inf when failures reach it.
func (l *latencies) median() float64 {
	if l.n == 0 {
		return 0
	}
	rank := (l.n + 1) / 2
	var seen int64
	for b, c := range l.hist[:histBuckets] {
		if seen += c; seen >= rank {
			return histLo * math.Pow(histGrowth, float64(b)+0.5)
		}
	}
	return math.Inf(1)
}

// tail returns the median over windows of each window's p-th percentile,
// for a p the accumulator was made with. A burst of interference then
// moves one window, not the run's figure. With fewer samples than one
// window it is the percentile of them all.
func (l *latencies) tail(p float64) float64 {
	for _, t := range l.tails {
		if t.p != p {
			continue
		}
		if len(t.tails) == 0 {
			s := append([]float64(nil), t.win...)
			sort.Float64s(s)
			return percentile(s, p)
		}
		return median(t.tails)
	}
	panic("e2ebench: no tail tracked at this percentile")
}
