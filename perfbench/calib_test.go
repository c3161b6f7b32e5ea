package main

import (
	"math"
	"testing"
)

// TestSettle checks that each block is scaled by refUnitNS over the
// median of the calWindow calibrations nearest it, clamped at the ends
// of the run, and that blockQ and blockRate apply the scale.
func TestSettle(t *testing.T) {
	c := &calibrator{}
	// Calibration i costs (i+1) * refUnitNS / 4: the host slows down.
	for i := 0; i < 10; i++ {
		c.all = append(c.all, float64(i+1)*refUnitNS/4)
	}
	first, middle, last := newLatencies(), newLatencies(), newLatencies()
	for _, l := range []*latencies{first, middle, last} {
		l.add(100)
		l.end = l.start.Add(2e9) // one sample over 2s: 0.5/s
	}
	c.blocks = []calBlock{{first, 0}, {middle, 5}, {last, 9}}
	c.settle()
	// first: calibrations 0..5, median (ceil rank) the 3rd: 3/4 ref.
	// middle: 3..8, the 6th: 6/4 ref. last: 4..9, the 7th: 7/4 ref.
	for _, tc := range []struct {
		l    *latencies
		want float64
	}{{first, 4.0 / 3}, {middle, 4.0 / 6}, {last, 4.0 / 7}} {
		if math.Abs(tc.l.scale-tc.want) > 1e-12 {
			t.Errorf("scale = %g, want %g", tc.l.scale, tc.want)
		}
	}
	ps := phases{middle}
	if got := ps.blockQ(0.5, 1, true); math.Abs(got-100*4.0/6) > 1e-9 {
		t.Errorf("scaled p50 = %g, want %g", got, 100*4.0/6)
	}
	if got := ps.blockQ(0.5, 1, false); got != 100 {
		t.Errorf("unscaled p50 = %g, want 100", got)
	}
	if got := ps.blockRate(true); math.Abs(got-0.5*6.0/4) > 1e-9 {
		t.Errorf("scaled rate = %g, want %g", got, 0.5*6.0/4)
	}
}
