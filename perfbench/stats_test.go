package main

import "testing"

func TestStreamSummary(t *testing.T) {
	// Three one-second parts; the middle one is disturbed. The medians
	// over parts ignore it, and with fewer than 1000 operations the
	// tail is the maximum.
	var s stream
	s.add(samples{1, 2, 3}, 1)
	s.add(samples{10, 20, 30, 40, 50, 60}, 1)
	s.add(samples{2, 3, 4, 5}, 1)
	p50, tail, rate, isP99 := s.summary()
	if p50 != 3.5 || rate != 4 || tail != 60 || isP99 {
		t.Errorf("summary = %v, %v, %v, %v; want 3.5, 60, 4, false", p50, tail, rate, isP99)
	}

	var big stream
	lat := make(samples, 2000)
	for i := range lat {
		lat[i] = float64(i)
	}
	big.add(lat, 2)
	if _, tail, rate, isP99 := big.summary(); !isP99 || tail != lat.quantile(0.99) || rate != 1000 {
		t.Errorf("summary of 2000 ops: tail %v (p99 %t), rate %v", tail, isP99, rate)
	}
}
