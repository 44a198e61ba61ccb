package main

import (
	"time"
)

// config is one invocation of the benchmark.
type config struct {
	seed    int64
	budget  time.Duration
	trace   bool
	clockNs float64
	skew    int64 // added to every expected count; tests only
}

// result is one workload run: its op accounting, its failures, and the
// metrics by name (end-to-end untraced, per-layer traced).
type result struct {
	attempted, failed int64
	errs              []error
	metrics           map[string]float64
	meta              map[string]any
	spans             []span
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, meta: map[string]any{}}
}

func (r *result) fail(n int64, errs ...error) {
	r.failed += n
	r.errs = append(r.errs, errs...)
}

// layerAcc accumulates per-layer counts across a traced run's rounds.
type layerAcc struct {
	incSteps, incs, cas, casFailed int64
	writeSteps, writes             int64
	updateSteps, updates           int64
	flightDropped, flightRecorded  int64
}

// steadySetup is the median set-up time in seconds, leaving out the
// first set-up of a run when there are others: it alone pays one-time
// process initialisation (the embedded bound table is parsed once).
func steadySetup(setups []time.Duration) float64 {
	if len(setups) > 1 {
		setups = setups[1:]
	}
	return median(seconds(setups))
}
