package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it; otherwise it is unsupported.
const minBeyond = 10

// Percentile returns the nearest-rank q-quantile of samples (0 < q < 1)
// and whether it is supported: at least minBeyond samples lie above its
// rank. samples need not be sorted and are not modified.
func Percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], true
}

// Mean returns the arithmetic mean (0 for no samples).
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// Median returns the middle value of a small set of repeats (set-up
// times), averaging the middle pair for an even count. It is not subject
// to the percentile rule: it summarizes repeats of one fixed piece of
// work, not a latency distribution.
func Median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// Metric is one reported number. N is its sample count (0 for a count or
// ratio that is not a statistic over samples); OK false marks a
// percentile the samples do not support.
type Metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
	OK    bool
	Note  string
}

// Report collects a run's metrics in print order.
type Report struct {
	list []Metric
}

// Add records a supported value.
func (r *Report) Add(name, unit string, v float64, n int, note string) {
	r.list = append(r.list, Metric{Name: name, Unit: unit, Value: v, N: n, OK: true, Note: note})
}

// AddPercentile records the q-quantile of samples, unsupported when the
// percentile rule is not met.
func (r *Report) AddPercentile(name, unit string, samples []float64, q float64) {
	v, ok := Percentile(samples, q)
	note := fmt.Sprintf("p%g", q*100)
	if !ok {
		note = fmt.Sprintf("unsupported: fewer than %d samples beyond p%g", minBeyond, q*100)
	}
	r.list = append(r.list, Metric{Name: name, Unit: unit, Value: v, N: len(samples), OK: ok, Note: note})
}

// Get returns the named metric.
func (r *Report) Get(name string) (Metric, bool) {
	for _, m := range r.list {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// Metrics returns every recorded metric in order.
func (r *Report) Metrics() []Metric { return r.list }

// Line renders one metric for the human-readable report.
func (m Metric) Line() string {
	val := "unsupported"
	if m.OK {
		val = strconv.FormatFloat(m.Value, 'g', 8, 64)
	}
	s := fmt.Sprintf("%-40s %14s %-6s", m.Name, val, m.Unit)
	if m.N > 0 {
		s += fmt.Sprintf(" n=%d", m.N)
	}
	if m.Note != "" {
		s += "  (" + m.Note + ")"
	}
	return s
}
