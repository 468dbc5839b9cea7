package main

import (
	"fmt"
	"math"
	"sort"
)

// lat collects one operation class's latencies in milliseconds. A failed or
// refused operation is recorded as +Inf: it missed every latency limit, so
// it sorts past every real sample and drags the tail with it.
type lat struct {
	ms     []float64
	failed int
}

func (l *lat) add(ms float64) { l.ms = append(l.ms, ms) }

func (l *lat) fail() {
	l.ms = append(l.ms, math.Inf(1))
	l.failed++
}

func (l *lat) merge(o *lat) {
	l.ms = append(l.ms, o.ms...)
	l.failed += o.failed
}

// minSamples is the sample floor for quantile q: a quantile is reported
// only when at least ten samples lie beyond it (1000 for a p99, 20 for a
// median).
func minSamples(q float64) int { return int(math.Ceil(10/(1-q) - 1e-9)) }

// quantile returns the nearest-rank q-quantile of v. Below the sample
// floor it is an error — a p99 read off 200 samples is the maximum of a
// handful of events, not a tail — unless floor is relaxed to 1 (smoke runs).
func quantile(v []float64, q float64, floor int) (float64, error) {
	if floor < 1 {
		floor = 1
	}
	if len(v) < floor {
		return 0, fmt.Errorf("p%g needs %d samples, have %d", 100*q, floor, len(v))
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], nil
}

// median of a small set (set-up repetitions); v must be non-empty.
func median(v []float64) float64 {
	m, _ := quantile(v, 0.5, 1)
	return m
}

// mean of v; 0 for an empty slice.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
