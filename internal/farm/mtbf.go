package farm

// MTBFEstimator tracks the cluster's mean time between failures online,
// as an exponentially-weighted mean of inter-failure intervals. The
// estimator is seeded with a prior so /v1/stats reports an estimate
// before the first failure; each observed failure then pulls the
// estimate toward the measured rate with weight alpha:
//
//	mean <- (1-alpha)*mean + alpha*dt
//
// where dt is the time since the previous failure anywhere in the
// cluster. The estimator does no locking: its caller serializes
// failure reports (the job farm holds its mutex).
type MTBFEstimator struct {
	alpha float64
	mean  float64 // EW mean inter-failure interval, cluster level
	lastT float64 // time of the newest failure
}

// minMTBFS floors the estimate: a burst of simultaneous failures must
// not collapse the MTBF to zero.
const minMTBFS = 1e-6

// NewMTBFEstimator seeds an estimator with the cluster-level prior (in
// seconds).
func NewMTBFEstimator(priorS, alpha float64) *MTBFEstimator {
	if priorS < minMTBFS {
		priorS = minMTBFS
	}
	if alpha <= 0 || alpha > 1 {
		alpha = 0.3
	}
	return &MTBFEstimator{alpha: alpha, mean: priorS}
}

// ObserveFailure records a hardware failure at cumulative run time t
// (seconds).
func (e *MTBFEstimator) ObserveFailure(t float64) {
	dt := t - e.lastT
	if dt < minMTBFS {
		dt = minMTBFS
	}
	e.mean = (1-e.alpha)*e.mean + e.alpha*dt
	e.lastT = t
}

// MTBFS returns the current cluster-level MTBF estimate in seconds
// (never below minMTBFS).
func (e *MTBFEstimator) MTBFS() float64 {
	if e.mean < minMTBFS {
		return minMTBFS
	}
	return e.mean
}
