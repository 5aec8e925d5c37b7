package kv

import (
	"math"
	"sync/atomic"

	"repro/htm"
)

// Admission control: under injected (or real) adversity the engine's retry
// loops burn attempts instead of committing, and every queued request makes
// the storm worse. Shedding excess requests at the door — 503 + Retry-After,
// before they touch the engine — keeps the latency of ADMITTED requests
// bounded, which is the graceful-degradation property the chaos harness
// measures. Two signals gate admission:
//
//   - Saturation: every pooled execution context is checked out. One more
//     request would only queue behind the pool; its deadline is better spent
//     by the client retrying later.
//   - Abort storm: the last Tuner epoch's rate of conflict + spurious aborts
//     reached the live storm threshold. A storm means attempts are being
//     killed faster than they commit; admitting more traffic adds fuel.
//
// The Governor keeps no clock and reads no heap counters of its own: the
// store's Tuner samples the heap once per epoch for both the fallback-mode
// controller and this observer.

// Admission constants.
const (
	// StormMinStarts is the minimum transaction attempts an epoch must
	// contain for its abort rate to be evidence; quieter epochs clear the
	// storm flag.
	StormMinStarts = 64
	// initialStormRate is the shed threshold before the first epoch with
	// traffic moves it (see TrackAbortMix).
	initialStormRate = 0.85
	// retryAfterSeconds is the base Retry-After hint on shed responses.
	retryAfterSeconds = 1
)

// Governor decides request admission for a Store. It is safe for concurrent
// use: Allow reads two flags, and the storm flag is written only by the
// store's Tuner goroutine.
type Governor struct {
	store *Store

	storm atomic.Bool
	sheds atomic.Uint64

	// stormRate is the live shed threshold (float64 bits): initialStormRate
	// until TrackAbortMix moves it. ewma is the tracked abort-mix average,
	// written only by the Tuner goroutine; retrySeq steps the Retry-After
	// jitter.
	stormRate atomic.Uint64
	ewma      atomic.Uint64
	retrySeq  atomic.Uint64
}

// NewGovernor builds a Governor over s and subscribes it to s's Tuner.
func NewGovernor(s *Store) *Governor {
	g := &Governor{store: s}
	g.stormRate.Store(math.Float64bits(initialStormRate))
	s.Tuner().Observe(g.TrackAbortMix)
	return g
}

// Allow reports whether a new request should be admitted.
func (g *Governor) Allow() bool {
	if g.store.InFlight() >= g.store.PoolSize() || g.storm.Load() {
		g.sheds.Add(1)
		return false
	}
	return true
}

// RetryAfterSeconds is the backoff hint attached to shed responses: jittered
// per call over [1, 2] seconds so that a thundering herd shed in one epoch
// does not return in lockstep and re-trigger the shed that sent it away. The
// jitter is a counter sweep, not a PRNG — adjacent shed responses get
// different hints deterministically, which keeps chaos-harness runs
// reproducible.
func (g *Governor) RetryAfterSeconds() int {
	return retryAfterSeconds + int(g.retrySeq.Add(1)%(retryAfterSeconds+1))
}

// StormRate returns the live shed threshold (diagnostics, /stats).
func (g *Governor) StormRate() float64 {
	return math.Float64frombits(g.stormRate.Load())
}

// SetStormRate replaces the shed threshold, clamped to [0.05, 0.99].
func (g *Governor) SetStormRate(r float64) {
	if r < 0.05 {
		r = 0.05
	} else if r > 0.99 {
		r = 0.99
	}
	g.stormRate.Store(math.Float64bits(r))
}

// abortMixMargin is how far above the workload's running-average abort rate
// the shed threshold sits: far enough that the normal mix never sheds, close
// enough that a genuine storm crosses it within an epoch or two.
const abortMixMargin = 0.25

// TrackAbortMix is the Governor's Tuner-observer hook (htm.Tuner.Observe).
// Each epoch with traffic folds the heap's abort rate into an
// exponentially-weighted average and re-derives the shed threshold as that
// average plus a fixed margin; a static threshold would declare a
// permanently contended workload to be in permanent storm (or never notice
// trouble on a calm one), while tracking the mix makes "storm" mean "worse
// than this workload's normal". The epoch is then judged against the moved
// threshold: it is a storm when it carries at least StormMinStarts attempts
// and its (Conflicts+Spurious)/Starts reaches the threshold. Idle epochs
// leave the average alone and clear the flag.
func (g *Governor) TrackAbortMix(e htm.TunerEpoch) {
	if e.Starts > 0 {
		prev := math.Float64frombits(g.ewma.Load())
		next := 0.8*prev + 0.2*e.AbortRate
		g.ewma.Store(math.Float64bits(next))
		g.SetStormRate(next + abortMixMargin)
	}
	g.storm.Store(e.Starts >= StormMinStarts &&
		float64(e.Conflicts+e.Spurious) >= g.StormRate()*float64(e.Starts))
}

// Sheds returns the cumulative count of refused admissions.
func (g *Governor) Sheds() uint64 { return g.sheds.Load() }

// Storming reports the current abort-storm flag (diagnostics, /stats).
func (g *Governor) Storming() bool { return g.storm.Load() }
