package main

import (
	"math"
	"slices"
)

// samples are durations or other values in seconds.
type samples []float64

// median of the samples; NaN when empty.
func (s samples) median() float64 { return s.quantile(0.5) }

// quantile returns the q-quantile by linear interpolation between
// order statistics.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := slices.Clone(s)
	slices.Sort(c)
	pos := q * float64(len(c)-1)
	lo := int(pos)
	if lo+1 >= len(c) {
		return c[len(c)-1]
	}
	return c[lo] + (pos-float64(lo))*(c[lo+1]-c[lo])
}

// part is one segment of a stream: its operations' durations and the
// time its rate is taken over — the segment's wall time for a
// closed-loop stream, the sum of the durations for a paced one, whose
// completions per wall second would only be the pacer's rate.
type part struct {
	lat    samples
	window float64
}

// stream is one measured operation stream of a workload, in segments.
type stream struct{ parts []part }

func (s *stream) add(lat samples, window float64) { s.parts = append(s.parts, part{lat, window}) }

// bytes is the memory the stream's samples hold.
func (s stream) bytes() int {
	n := 0
	for _, p := range s.parts {
		n += 8 * cap(p.lat)
	}
	return n
}

func (s stream) ops() int {
	n := 0
	for _, p := range s.parts {
		n += len(p.lat)
	}
	return n
}

// sliceOps is the least number of operations that leaves ten beyond a
// p99.
const sliceOps = 1000

// summary reports the stream's median latency and rate, each the
// median over the segments, so a few seconds of interference on a
// shared machine move a few segments, not the result; and its p99 over
// all segments together, so collector pauses count in proportion to
// how often they land. A stream too short for a p99 (fewer than ten
// operations beyond it) reports its maximum, with isP99 false.
func (s stream) summary() (p50, tail, rate float64, isP99 bool) {
	var p50s, rates, all samples
	for _, p := range s.parts {
		if len(p.lat) == 0 {
			continue
		}
		p50s = append(p50s, p.lat.median())
		rates = append(rates, float64(len(p.lat))/p.window)
		all = append(all, p.lat...)
	}
	if len(all) >= sliceOps {
		tail, isP99 = all.quantile(0.99), true
	} else {
		tail = slices.Max(all)
	}
	return p50s.median(), tail, rates.median(), isP99
}

func (s samples) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}
