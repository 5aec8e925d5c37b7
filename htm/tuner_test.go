package htm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newAdaptiveHeap builds a TLE-enabled heap that overflows quickly, so
// fallback traffic is easy to provoke.
func newAdaptiveHeap(t testing.TB, cfg Config) *Heap {
	t.Helper()
	if !cfg.EnableTLE {
		cfg.EnableTLE = true
	}
	if cfg.StoreBufferSize == 0 {
		cfg.StoreBufferSize = 2
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 2
	}
	return newTestHeap(t, cfg)
}

// TestAdaptiveAccessorsWorkOnPlainConfig: the runtime mode and the Tuner
// need no opt-in — on a heap built from a plain Config{EnableTLE: true} the
// seeded mode reads back, SetFallbackMode takes effect, a global-mode
// fallback runs through the always-armed barrier, and a Tuner starts and
// stops.
func TestAdaptiveAccessorsWorkOnPlainConfig(t *testing.T) {
	h := newTestHeap(t, Config{EnableTLE: true})
	if got := h.FallbackMode(); got != ModeFine {
		t.Errorf("plain heap FallbackMode = %v, want fine", got)
	}
	if got := newTestHeap(t, Config{EnableTLE: true, GlobalFallback: true}).FallbackMode(); got != ModeGlobal {
		t.Errorf("GlobalFallback heap FallbackMode = %v, want global", got)
	}
	h.SetFallbackMode(ModeGlobal)
	if got := h.FallbackMode(); got != ModeGlobal {
		t.Errorf("FallbackMode after switch = %v, want global", got)
	}
	th := h.NewThread()
	a := th.Alloc(RockStoreBufferSize + 1)
	th.Atomic(func(tx *Txn) { // overflows the store buffer -> global fallback
		for i := Addr(0); i <= RockStoreBufferSize; i++ {
			tx.Store(a+i, 1)
		}
	})
	if st := h.Stats(); st.FallbackRuns != 1 || st.FallbackLocks != 0 {
		t.Errorf("FallbackRuns=%d FallbackLocks=%d, want one global-lock run", st.FallbackRuns, st.FallbackLocks)
	}
	tu := h.StartTuner(TunerConfig{Interval: time.Millisecond})
	defer tu.Stop()
	for deadline := time.Now().Add(5 * time.Second); tu.State().Epochs == 0; {
		if time.Now().After(deadline) {
			t.Fatal("tuner on a plain heap never ticked an epoch")
		}
		runtime.Gosched()
	}
}

func TestAdaptiveModeSwitchVisibleAndCounted(t *testing.T) {
	h := newAdaptiveHeap(t, Config{})
	if h.FallbackMode() != ModeFine {
		t.Fatalf("initial mode = %v, want fine", h.FallbackMode())
	}
	h.SetFallbackMode(ModeGlobal)
	h.SetFallbackMode(ModeGlobal) // same mode: not a switch
	h.SetFallbackMode(ModeFine)
	if got := h.ModeSwitches(); got != 2 {
		t.Errorf("ModeSwitches = %d, want 2", got)
	}
	if got := h.Stats().ModeSwitches; got != 2 {
		t.Errorf("Stats().ModeSwitches = %d, want 2", got)
	}
	hg := newAdaptiveHeap(t, Config{GlobalFallback: true})
	if hg.FallbackMode() != ModeGlobal {
		t.Errorf("GlobalFallback seeds the initial mode: got %v", hg.FallbackMode())
	}
}

// TestAdaptiveFallbackBothModes runs the overflow workload with the runtime
// mode pinned at each setting: both paths must preserve the multi-word
// invariant and count fallback runs, exactly as the static modes do.
func TestAdaptiveFallbackBothModes(t *testing.T) {
	for _, mode := range []FallbackMode{ModeFine, ModeGlobal} {
		t.Run(mode.String(), func(t *testing.T) {
			h := newAdaptiveHeap(t, Config{})
			h.SetFallbackMode(mode)
			th := h.NewThread()
			a := th.Alloc(8)
			th.Atomic(func(tx *Txn) {
				for i := Addr(0); i < 8; i++ {
					tx.Store(a+i, uint64(i)+1)
				}
			})
			for i := Addr(0); i < 8; i++ {
				if v := h.LoadNT(a + i); v != uint64(i)+1 {
					t.Errorf("word %d = %d, want %d", i, v, i+1)
				}
			}
			s := h.Stats()
			if s.FallbackRuns == 0 {
				t.Error("fallback was not engaged")
			}
			if mode == ModeGlobal && s.FallbackLocks != 0 {
				t.Errorf("global mode acquired %d per-word locks", s.FallbackLocks)
			}
			if mode == ModeFine && s.FallbackLocks == 0 {
				t.Error("fine mode acquired no per-word locks")
			}
		})
	}
}

// TestAdaptiveModeFlipStress is the acceptance stress: flip the fallback mode
// continuously under concurrent transactional + fallback load (run with
// -race). Writers maintain a multi-word invariant on a SHARED block through
// deliberately overflowing transactions — every attempt takes some fallback
// path, whichever mode is live — while readers verify the invariant and a
// dedicated goroutine toggles fine↔global. Afterwards the heap must be
// exactly quiescent: clean SweepMeta, even fallback sequence, flags drained.
func TestAdaptiveModeFlipStress(t *testing.T) {
	h := newAdaptiveHeap(t, Config{MaxRetries: 1})
	setup := h.NewThread()
	shared := setup.Alloc(4)

	const (
		writers = 4
		readers = 2
		iters   = 400
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Mode flipper: as fast as the scheduler allows.
	flip := make(chan struct{})
	go func() {
		defer close(flip)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				h.SetFallbackMode(ModeGlobal)
			} else {
				h.SetFallbackMode(ModeFine)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	var total atomic.Uint64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			th := h.NewThread()
			for i := 0; i < iters; i++ {
				v := seed*uint64(iters) + uint64(i)
				th.Atomic(func(tx *Txn) {
					// 4 distinct stores overflow the 2-entry buffer: the body
					// completes only on a fallback path.
					for k := Addr(0); k < 4; k++ {
						tx.Store(shared+k, v)
					}
				})
				total.Add(1)
			}
		}(uint64(w) + 1)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := h.NewThread()
			for i := 0; i < iters; i++ {
				var vals [4]uint64
				th.Atomic(func(tx *Txn) {
					for k := Addr(0); k < 4; k++ {
						vals[k] = tx.Load(shared + k)
					}
				})
				for k := 1; k < 4; k++ {
					if vals[k] != vals[0] {
						t.Errorf("torn read: %v", vals)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-flip

	if got := total.Load(); got != writers*iters {
		t.Errorf("completed %d writes, want %d", got, writers*iters)
	}
	var final [4]uint64
	for k := Addr(0); k < 4; k++ {
		final[k] = h.LoadNT(shared + k)
	}
	for k := 1; k < 4; k++ {
		if final[k] != final[0] {
			t.Errorf("final state torn: %v", final)
		}
	}
	s := h.Stats()
	if s.FallbackRuns == 0 {
		t.Error("stress never engaged the fallback")
	}
	if h.ModeSwitches() == 0 {
		t.Error("stress never switched modes")
	}
	sweep := h.SweepMeta()
	if sweep.Locked != 0 || sweep.FallbackTagged != 0 || sweep.StripeErrors != 0 {
		t.Errorf("quiescent sweep not clean: %+v", sweep)
	}
	if sweep.Allocated != s.LiveWords {
		t.Errorf("sweep allocated %d != live words %d", sweep.Allocated, s.LiveWords)
	}
	if seq := h.fallbackSeq.Load(); seq&1 != 0 {
		t.Errorf("fallback sequence left odd: %d", seq)
	}
	for _, c := range h.stats.snapshotCells() {
		if c.inCommit.Load() != 0 || c.inFine.Load() != 0 {
			t.Error("quiesce barrier words not drained")
		}
	}
}

// Synthetic epoch helpers for driving the decision logic deterministically.
func stormEpoch() TunerEpoch {
	return TunerEpoch{FallbackRuns: 100, FallbackWaits: 150, FallbackRetries: 100, ContentionRatio: 2.5}
}
func busyCalmEpoch() TunerEpoch {
	return TunerEpoch{FallbackRuns: 100, FallbackWaits: 1, ContentionRatio: 0.01}
}
func idleEpoch() TunerEpoch { return TunerEpoch{} }

func TestTunerModeController(t *testing.T) {
	h := newAdaptiveHeap(t, Config{})
	tu := h.NewTuner(TunerConfig{})

	// Hysteresis (switchAfter = 2): one storm epoch is not enough.
	tu.decide(stormEpoch())
	if h.FallbackMode() != ModeFine {
		t.Fatal("switched to global after a single storm epoch")
	}
	tu.decide(stormEpoch())
	if h.FallbackMode() != ModeGlobal {
		t.Fatal("two storm epochs did not switch to global")
	}

	// An interrupted streak resets.
	h.SetFallbackMode(ModeFine)
	tu.stormStreak = 0
	tu.decide(stormEpoch())
	tu.decide(busyCalmEpoch())
	tu.decide(stormEpoch())
	if h.FallbackMode() != ModeFine {
		t.Fatal("interrupted storm streak still switched modes")
	}
	tu.decide(stormEpoch())
	if h.FallbackMode() != ModeGlobal {
		t.Fatal("rebuilt storm streak did not switch")
	}

	// Busy global epochs eventually probe fine again.
	for i := 1; i < probeEvery; i++ {
		tu.decide(busyCalmEpoch())
	}
	if h.FallbackMode() != ModeGlobal {
		t.Fatal("probed before probeEvery busy epochs")
	}
	tu.decide(busyCalmEpoch())
	if h.FallbackMode() != ModeFine {
		t.Fatal("probeEvery busy global epochs did not probe fine")
	}

	// Calm traffic returns a global heap to fine without waiting for a probe.
	h.SetFallbackMode(ModeGlobal)
	tu.stormStreak, tu.calmStreak, tu.globalEpochs = 0, 0, 0
	tu.decide(idleEpoch())
	tu.decide(idleEpoch())
	if h.FallbackMode() != ModeFine {
		t.Fatal("idle epochs did not return the heap to fine mode")
	}
}

// TestTunerLivelockEpochIsStorm: an epoch of pure collisions with ZERO
// completed runs is the severest storm (a retry livelock) — the evidence gate
// must count collisions, not just completions, the ratio must not read as
// vacuously calm, and a catastrophic ratio must switch WITHOUT waiting out
// switchAfter hysteresis (every deliberation epoch is a livelocked epoch).
func TestTunerLivelockEpochIsStorm(t *testing.T) {
	h := newAdaptiveHeap(t, Config{})
	tu := h.NewTuner(TunerConfig{})
	livelock := TunerEpoch{FallbackRuns: 0, FallbackWaits: 300, FallbackRetries: 200, ContentionRatio: 500}
	tu.decide(livelock)
	if h.FallbackMode() != ModeGlobal {
		t.Fatal("zero-completion collision storm did not switch the mode to global in one epoch")
	}
}

// TestTunerProbeRefutedInOneEpoch: a probe out of global mode is a hypothesis
// test — one storm epoch refutes it and must re-switch immediately, not after
// switchAfter more livelocked epochs. A probe that survives a calm epoch
// sheds the fast-refute state and gets full hysteresis again.
func TestTunerProbeRefutedInOneEpoch(t *testing.T) {
	h := newAdaptiveHeap(t, Config{})
	tu := h.NewTuner(TunerConfig{})
	probe := func() {
		t.Helper()
		for i := 0; i < probeEvery; i++ {
			tu.decide(busyCalmEpoch())
		}
		if h.FallbackMode() != ModeFine {
			t.Fatal("setup: probe did not switch to fine")
		}
	}

	// Reach global mode via the catastrophe path, then probe out of it.
	tu.decide(TunerEpoch{FallbackRuns: 10, FallbackWaits: 200, ContentionRatio: 20})
	if h.FallbackMode() != ModeGlobal {
		t.Fatal("setup: catastrophe epoch did not switch to global")
	}
	probe()

	// One ordinary (sub-catastrophe) storm epoch refutes the probe.
	tu.decide(stormEpoch())
	if h.FallbackMode() != ModeGlobal {
		t.Fatal("failed probe was not refuted by a single storm epoch")
	}

	// Probe again; this time a calm epoch confirms fine mode, so a later
	// storm pays full switchAfter hysteresis again.
	probe()
	tu.decide(busyCalmEpoch()) // probe survives: fast-refute state sheds
	for i := 1; i < switchAfter; i++ {
		tu.decide(stormEpoch())
	}
	if h.FallbackMode() != ModeFine {
		t.Fatal("confirmed fine stint lost hysteresis: switched before switchAfter epochs")
	}
	tu.decide(stormEpoch())
	if h.FallbackMode() != ModeGlobal {
		t.Fatal("switchAfter storm epochs did not switch a confirmed fine stint")
	}
}

// TestTunerEpochDeltaLivelockRatio checks the sampled ratio itself: counters
// showing collisions but no completed runs must produce a large
// ContentionRatio, not 0/0 = 0.
func TestTunerEpochDeltaLivelockRatio(t *testing.T) {
	h := newAdaptiveHeap(t, Config{})
	tu := h.NewTuner(TunerConfig{})
	th := h.NewThread()
	th.cell.fallbackWaits.Store(50)
	th.cell.fallbackRetries.Store(10)
	var got TunerEpoch
	tu.Observe(func(e TunerEpoch) { got = e })
	tu.Tick()
	if got.FallbackRuns != 0 || got.FallbackWaits != 50 || got.FallbackRetries != 10 {
		t.Fatalf("epoch deltas = %+v, want 0 runs / 50 waits / 10 retries", got)
	}
	if got.ContentionRatio != 60 {
		t.Errorf("ContentionRatio = %v, want 60 (collisions over max(runs,1))", got.ContentionRatio)
	}
}

// TestTunerCollisionFreeNeverSwitches: one thread's fallback runs can never
// collide, so however busy the epochs are their contention ratio is 0 and the
// mode stays fine — the property that lets a single-context determinism
// harness run with the Tuner live and still replay every counter.
func TestTunerCollisionFreeNeverSwitches(t *testing.T) {
	h := newAdaptiveHeap(t, Config{})
	tu := h.NewTuner(TunerConfig{})
	var seen []TunerEpoch
	tu.Observe(func(e TunerEpoch) { seen = append(seen, e) })

	th := h.NewThread()
	a := th.Alloc(8)
	for epoch := 0; epoch < 2*switchAfter; epoch++ {
		for i := 0; i < minFallbackRuns; i++ { // overflows: every op falls back
			th.Atomic(func(tx *Txn) {
				for k := Addr(0); k < 8; k++ {
					tx.Store(a+k, uint64(i))
				}
			})
		}
		tu.Tick()
	}

	if h.FallbackMode() != ModeFine || h.ModeSwitches() != 0 {
		t.Errorf("collision-free fallback traffic switched the mode: %v after %d switches", h.FallbackMode(), h.ModeSwitches())
	}
	if len(seen) != 2*switchAfter {
		t.Fatalf("observer saw %d epochs, want %d", len(seen), 2*switchAfter)
	}
	for _, e := range seen {
		if e.FallbackRuns < minFallbackRuns || e.ContentionRatio != 0 {
			t.Errorf("epoch %d: %d runs, ratio %v; want ≥ %d runs at ratio 0", e.Epoch, e.FallbackRuns, e.ContentionRatio, minFallbackRuns)
		}
	}
}

func TestTunerStartStop(t *testing.T) {
	h := newAdaptiveHeap(t, Config{})
	var epochs atomic.Uint64
	tu := h.StartTuner(TunerConfig{Interval: time.Millisecond})
	tu.Observe(func(TunerEpoch) { epochs.Add(1) })
	deadline := time.Now().Add(2 * time.Second)
	for epochs.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	tu.Stop()
	tu.Stop() // idempotent
	if epochs.Load() < 3 {
		t.Errorf("tuner ticked %d epochs in 2s, want ≥ 3", epochs.Load())
	}
	if st := tu.State(); st.Epochs < 3 {
		t.Errorf("State().Epochs = %d, want ≥ 3", st.Epochs)
	}

	// A never-started tuner stops without hanging.
	h2 := newAdaptiveHeap(t, Config{})
	h2.NewTuner(TunerConfig{}).Stop()
}

// TestTunerEndToEndSharedStorm drives a real shared-footprint storm through a
// running tuner and requires the controller to reach the global lock, then
// hand the heap back clean.
func TestTunerEndToEndSharedStorm(t *testing.T) {
	// YieldEvery forces holders to deschedule mid-lock-hold, so contenders
	// observe the held lock-set (FallbackWaits) even on few CPUs; without it
	// a single-CPU run can convoy invisibly, every holder completing within
	// its scheduling quantum.
	h := newAdaptiveHeap(t, Config{MaxRetries: 1, YieldEvery: 3})
	tu := h.NewTuner(TunerConfig{})
	setup := h.NewThread()
	shared := setup.Alloc(4)

	const workers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			th := h.NewThread()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				th.Atomic(func(tx *Txn) {
					for k := Addr(0); k < 4; k++ {
						tx.Store(shared+k, seed+uint64(i))
					}
				})
			}
		}(uint64(w) << 32)
	}
	deadline := time.Now().Add(5 * time.Second)
	for h.FallbackMode() != ModeGlobal && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		tu.Tick()
	}
	close(stop)
	wg.Wait()
	if h.FallbackMode() != ModeGlobal {
		t.Fatalf("controller never switched to global under a shared storm: %s", h.Stats())
	}
	sweep := h.SweepMeta()
	if sweep.Locked != 0 || sweep.FallbackTagged != 0 {
		t.Errorf("sweep not clean after storm: %+v", sweep)
	}
}
