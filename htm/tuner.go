package htm

import (
	"sync"
	"time"
)

// Tuner is the per-heap online contention controller: a background goroutine
// that samples Stats deltas over short epochs and steers the heap's fallback
// MODE (see adaptive.go) from live abort feedback. Sustained fallback traffic
// whose contention ratio (lock-set collisions plus release-and-retries per
// run) says footprints are fully shared switches the heap to the global lock
// (which wins there — serializing one shared footprint beats N fallbacks
// fighting over one lock-set); calm or periodic probe epochs switch it back
// to fine-grained, so a workload whose phases alternate gets the best static
// configuration of each phase without retuning.
//
// A Tuner observes only aggregate counters and writes only the mode word, so
// it perturbs nothing it does not intend to: a workload whose fallbacks never
// collide (one thread, or disjoint footprints) never reads as a storm, and
// the mode never moves. Every kv.Store runs one, and attaches a second client
// through Observe: the overload Governor takes its abort-storm flag from the
// epochs (see kv/overload.go).
type Tuner struct {
	h   *Heap
	cfg TunerConfig

	mu        sync.Mutex
	last      Stats
	epochs    uint64
	observers []func(TunerEpoch)

	// Mode-controller state (all guarded by mu, written only by ticks).
	stormStreak  int  // consecutive fine-mode epochs of shared-footprint evidence
	calmStreak   int  // consecutive global-mode epochs without fallback traffic
	globalEpochs int  // busy global-mode epochs since the last probe
	probing      bool // the current fine stint is a probe out of global mode

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	running  bool // set by StartTuner before the goroutine launches
}

// TunerConfig parameterizes a Tuner. The zero value selects the defaults
// noted on each field.
type TunerConfig struct {
	// Interval is the epoch length. Defaults to 25ms: long enough for the
	// counters to accumulate evidence, short enough to track phase shifts
	// within a few tens of milliseconds.
	Interval time.Duration
}

// The mode controller's fixed parameters.
const (
	// minFallbackRuns is the per-epoch evidence floor below which the epoch
	// carries no mode evidence (too little traffic to judge). In fine mode
	// the storm vote counts completed runs PLUS collisions (waits and
	// retries) against it — a livelocked epoch completes almost nothing but
	// collides constantly; in global mode, where collisions cannot occur, it
	// is a floor on completed runs.
	minFallbackRuns = 32

	// stormRatio is the per-epoch contention ratio — (FallbackWaits +
	// FallbackRetries) / FallbackRuns — at or above which an epoch votes that
	// footprints are fully shared. FallbackWaits fires on any collision with
	// a held lock-set (in-order convoys included), FallbackRetries only on
	// the out-of-order release-and-retry path, so their sum sees storms that
	// retries alone cannot: N threads hammering one block in the same address
	// order never retry, they just queue. 0.75 means most runs in the epoch
	// queued behind another run's locks, the regime where BENCH_PR5.json
	// shows the global lock winning.
	stormRatio = 0.75

	// switchAfter is how many consecutive epochs of evidence a mode switch
	// requires, in both directions. Hysteresis: one noisy epoch never flips
	// the mode.
	switchAfter = 2

	// probeEvery is how many busy global-mode epochs the Tuner serves before
	// probing fine-grained mode again. Under the global lock fallbacks never
	// retry, so disjointness is unobservable from counters; the probe is the
	// only way back, and its period is the controller's recovery latency when
	// a shared phase ends. A probe that was wrong is cheap — probe stints
	// sample at an eighth of the interval and forgo the switchAfter
	// hysteresis, since a single storm epoch already refutes the probe's
	// hypothesis — so the controller probes aggressively.
	probeEvery = 4

	// stormCatastrophe is the contention ratio at or above which a SINGLE
	// epoch switches the mode, bypassing switchAfter hysteresis. Hysteresis
	// guards against flipping on noise, but ≥8 collisions per completed run
	// on an epoch with real evidence volume is not noise — it is a storm
	// dense enough that every epoch spent deliberating costs nearly an epoch
	// of throughput. A wrong flip is bounded: the probe path returns to fine
	// within probeEvery epochs.
	stormCatastrophe = 8.0
)

func (c TunerConfig) withDefaults() TunerConfig {
	if c.Interval <= 0 {
		c.Interval = 25 * time.Millisecond
	}
	return c
}

// TunerEpoch is one epoch's worth of Stats deltas plus the mode after the
// epoch's decision, as delivered to observers.
type TunerEpoch struct {
	// Counter deltas over the epoch.
	Starts, Commits, Aborts       uint64
	Conflicts, Spurious, Capacity uint64
	FallbackRuns, FallbackRetries uint64
	FallbackWaits, FallbackLocks  uint64
	// AbortRate is Aborts/Starts for the epoch (0 when idle).
	AbortRate float64
	// ContentionRatio is (FallbackWaits+FallbackRetries)/max(FallbackRuns, 1)
	// for the epoch — the mode controller's shared-footprint signal (see
	// stormRatio). The max(…, 1) denominator keeps a
	// zero-completion collision storm (a retry livelock) reading as a huge
	// ratio instead of vacuously calm.
	ContentionRatio float64
	// Mode is the fallback mode after this epoch's decision applied.
	Mode FallbackMode
	// Epoch is the 1-based epoch ordinal.
	Epoch uint64
}

// StartTuner attaches a Tuner to the heap and starts its sampling goroutine.
// Run exactly one Tuner per heap; Stop it before
// discarding the heap.
func (h *Heap) StartTuner(cfg TunerConfig) *Tuner {
	tu := h.NewTuner(cfg)
	tu.running = true
	go tu.run()
	return tu
}

// NewTuner builds a Tuner without starting its goroutine; callers drive it
// with Tick. Tests and single-stepped harnesses use this, StartTuner
// everything else.
func (h *Heap) NewTuner(cfg TunerConfig) *Tuner {
	return &Tuner{
		h:    h,
		cfg:  cfg.withDefaults(),
		last: h.Stats(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// Observe registers f to be called after every epoch with
// that epoch's deltas and mode. f runs on the Tuner goroutine and must
// not block.
func (tu *Tuner) Observe(f func(TunerEpoch)) {
	tu.mu.Lock()
	tu.observers = append(tu.observers, f)
	tu.mu.Unlock()
}

// Stop terminates the sampling goroutine and waits for it to exit.
// Idempotent. A Tuner built with NewTuner (never started) may also be
// stopped, which is a no-op beyond marking it stopped.
func (tu *Tuner) Stop() {
	tu.stopOnce.Do(func() { close(tu.stop) })
	if tu.running {
		<-tu.done
	}
}

func (tu *Tuner) run() {
	defer close(tu.done)
	timer := time.NewTimer(tu.interval())
	defer timer.Stop()
	for {
		select {
		case <-tu.stop:
			return
		case <-timer.C:
			tu.Tick()
			timer.Reset(tu.interval())
		}
	}
}

// interval is the next epoch length: epochs that exist only to confirm or
// refute a hypothesis sample faster than steady-state ones. A probe stint
// needs a single epoch of evidence either way, so it samples at an eighth of
// the configured interval — a wrong probe livelocks for that eighth and no
// longer. Fine-mode epochs with a storm streak pending sample at a quarter,
// so a building storm is confirmed after a quarter of the damage. Hysteresis
// keeps its sample count; only the wall-clock cost of gathering the
// confirming samples shrinks, which is what makes both probing and
// switchAfter affordable on a heap that is livelocking.
func (tu *Tuner) interval() time.Duration {
	tu.mu.Lock()
	probing, storming := tu.probing, tu.stormStreak > 0
	tu.mu.Unlock()
	if probing {
		return tu.cfg.Interval / 8
	}
	if storming {
		return tu.cfg.Interval / 4
	}
	return tu.cfg.Interval
}

// Tick runs one epoch synchronously: sample, decide, notify observers. The background loop calls it on every interval; tests and
// single-stepped harnesses call it directly.
func (tu *Tuner) Tick() {
	tu.mu.Lock()
	defer tu.mu.Unlock()
	s := tu.h.Stats()
	e := tu.epochDelta(s)
	tu.last = s
	tu.epochs++
	e.Epoch = tu.epochs
	tu.decide(e)
	e.Mode = tu.h.FallbackMode()
	for _, f := range tu.observers {
		f(e)
	}
}

// epochDelta computes the counter deltas between the previous sample and s.
func (tu *Tuner) epochDelta(s Stats) TunerEpoch {
	sub := func(a, b uint64) uint64 {
		if a < b {
			return 0 // new thread cells can only grow sums; clamp for safety
		}
		return a - b
	}
	e := TunerEpoch{
		Starts:          sub(s.Starts, tu.last.Starts),
		Commits:         sub(s.Commits, tu.last.Commits),
		Conflicts:       sub(s.Aborts[AbortConflict], tu.last.Aborts[AbortConflict]),
		Spurious:        sub(s.Aborts[AbortSpurious], tu.last.Aborts[AbortSpurious]),
		Capacity:        sub(s.Aborts[AbortCapacity], tu.last.Aborts[AbortCapacity]),
		FallbackRuns:    sub(s.FallbackRuns, tu.last.FallbackRuns),
		FallbackRetries: sub(s.FallbackRetries, tu.last.FallbackRetries),
		FallbackWaits:   sub(s.FallbackWaits, tu.last.FallbackWaits),
		FallbackLocks:   sub(s.FallbackLocks, tu.last.FallbackLocks),
	}
	e.Aborts = sub(s.TotalAborts(), tu.last.TotalAborts())
	if e.Starts > 0 {
		e.AbortRate = float64(e.Aborts) / float64(e.Starts)
	}
	// ContentionRatio divides by max(runs, 1), not runs: an epoch of pure
	// collisions with ZERO completed runs is the severest storm there is — a
	// retry livelock — and must read as a huge ratio, not as 0/0 = calm.
	runs := e.FallbackRuns
	if runs == 0 {
		runs = 1
	}
	e.ContentionRatio = float64(e.FallbackWaits+e.FallbackRetries) / float64(runs)
	return e
}

// decide applies one epoch of evidence to the mode controller.
func (tu *Tuner) decide(e TunerEpoch) {
	h := tu.h
	if !h.cfg.EnableTLE {
		return
	}
	busy := e.FallbackRuns >= minFallbackRuns
	// The storm vote gates on evidence volume — completions PLUS collisions —
	// because a dense enough storm stops completing runs altogether: gating on
	// FallbackRuns alone would make the controller blind to exactly the
	// livelock it exists to break. Under the global lock collisions are zero,
	// so `busy` (completions) remains the right gate everywhere else.
	stormBusy := e.FallbackRuns+e.FallbackWaits+e.FallbackRetries >= minFallbackRuns

	// Fine mode watches the contention ratio — lock-set collisions plus
	// release-and-retries per run: a sustained storm means the fallback
	// footprints overlap so heavily that serializing them under the global
	// lock is cheaper than the lock-set fighting. Global mode has no
	// contention signal (the global lock serializes everything), so it
	// returns to fine either when fallback traffic dries up or via a
	// periodic probe.
	switch h.FallbackMode() {
	case ModeFine:
		if stormBusy && e.ContentionRatio >= stormRatio {
			tu.stormStreak++
			need := switchAfter
			// Two cases forgo hysteresis: a catastrophic ratio (see
			// stormCatastrophe), and a probe stint — the probe is a
			// hypothesis test, and one epoch of storm evidence already
			// refutes it, so paying switchAfter livelocked epochs on every
			// failed probe would make probing unaffordable.
			if tu.probing || e.ContentionRatio >= stormCatastrophe {
				need = 1
			}
			if tu.stormStreak >= need {
				h.SetFallbackMode(ModeGlobal)
				tu.stormStreak, tu.calmStreak, tu.globalEpochs = 0, 0, 0
				tu.probing = false
			}
		} else {
			tu.stormStreak = 0
			tu.probing = false // the probe survived an epoch: fine mode holds
		}
	case ModeGlobal:
		if !busy {
			tu.calmStreak++
			tu.globalEpochs = 0
			if tu.calmStreak >= switchAfter {
				h.SetFallbackMode(ModeFine)
				tu.stormStreak, tu.calmStreak, tu.globalEpochs = 0, 0, 0
			}
		} else {
			tu.calmStreak = 0
			tu.globalEpochs++
			if tu.globalEpochs >= probeEvery {
				// Probe: only fine-grained traffic can reveal that the
				// footprints disjointed. If they did not, the storm streak
				// rebuilds and the controller re-switches in switchAfter
				// epochs.
				h.SetFallbackMode(ModeFine)
				tu.stormStreak, tu.calmStreak, tu.globalEpochs = 0, 0, 0
				tu.probing = true
			}
		}
	}
}

// TunerState is a point-in-time summary of the Tuner for diagnostics and the
// KV /stats endpoint.
type TunerState struct {
	// Epochs is the number of completed sampling epochs.
	Epochs uint64
	// Mode is the heap's current fallback mode; ModeSwitches counts runtime
	// changes applied so far.
	Mode         FallbackMode
	ModeSwitches uint64
}

// State returns the Tuner's current summary.
func (tu *Tuner) State() TunerState {
	tu.mu.Lock()
	epochs := tu.epochs
	tu.mu.Unlock()
	return TunerState{
		Epochs:       epochs,
		Mode:         tu.h.FallbackMode(),
		ModeSwitches: tu.h.ModeSwitches(),
	}
}
