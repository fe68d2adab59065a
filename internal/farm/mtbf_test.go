package farm

import (
	"math"
	"testing"
)

func TestMTBFEstimator(t *testing.T) {
	e := NewMTBFEstimator(1000, 0.5)
	if got := e.MTBFS(); got != 1000 {
		t.Fatalf("prior MTBF = %v, want 1000", got)
	}
	// Failures every 100s pull the EW mean from the prior toward 100.
	e.ObserveFailure(100)
	e.ObserveFailure(200)
	e.ObserveFailure(300)
	if got := e.MTBFS(); got >= 1000 || got <= 100 {
		t.Errorf("MTBF = %v after 100s-interval failures, want in (100, 1000)", got)
	}
	prev := e.MTBFS()
	for tt := 400.0; tt <= 1200; tt += 100 {
		e.ObserveFailure(tt)
	}
	if got := e.MTBFS(); got >= prev || math.Abs(got-100) > 50 {
		t.Errorf("MTBF = %v after many 100s intervals, want converging toward 100", got)
	}
}

func TestMTBFEstimatorFloorsBursts(t *testing.T) {
	e := NewMTBFEstimator(10, 1) // alpha 1: newest observation wins
	e.ObserveFailure(50)
	e.ObserveFailure(50) // simultaneous: zero interval
	if got := e.MTBFS(); got < minMTBFS {
		t.Errorf("MTBF = %v below floor after burst", got)
	}
}
