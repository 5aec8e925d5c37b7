package kv

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/htm"
)

// TestRetryAfterJitter checks the shed backoff hint spreads over [1, 2]
// seconds instead of herding every client to the same second.
func TestRetryAfterJitter(t *testing.T) {
	g := NewGovernor(newTestStore(t, Config{Slots: 64}))
	seen := map[int]bool{}
	for i := 0; i < 32; i++ {
		v := g.RetryAfterSeconds()
		if v < 1 || v > 2 {
			t.Fatalf("RetryAfterSeconds = %d, want within [1, 2]", v)
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Errorf("no jitter: every hint was the same value %v", seen)
	}
}

// TestGovernorTracksAbortMix drives the Tuner-observer hook directly: the
// shed threshold must follow the workload's abort-mix average — tightening
// on a calm workload, loosening past the initial 0.85 on a hot one — while
// idle epochs leave it alone.
func TestGovernorTracksAbortMix(t *testing.T) {
	g := NewGovernor(newTestStore(t, Config{Slots: 64}))
	if got := g.StormRate(); got != initialStormRate {
		t.Fatalf("initial StormRate = %v, want %v", got, initialStormRate)
	}

	// A calm workload (2% aborts) converges the threshold to ~margin above
	// it — well below the initial 0.85, so trouble is noticed sooner.
	for i := 0; i < 50; i++ {
		g.TrackAbortMix(htm.TunerEpoch{Starts: 1000, AbortRate: 0.02})
	}
	if got := g.StormRate(); got > 0.35 {
		t.Errorf("StormRate = %v after calm epochs, want tightened below 0.35", got)
	}

	// Idle epochs carry no evidence.
	before := g.StormRate()
	g.TrackAbortMix(htm.TunerEpoch{Starts: 0, AbortRate: 0})
	if got := g.StormRate(); got != before {
		t.Errorf("idle epoch moved StormRate %v -> %v", before, got)
	}

	// A permanently contended workload (90% aborts) pushes the threshold
	// above its own normal, up to the clamp — no permanent false storm.
	for i := 0; i < 50; i++ {
		g.TrackAbortMix(htm.TunerEpoch{Starts: 1000, AbortRate: 0.9, Conflicts: 900})
	}
	if got := g.StormRate(); got < 0.9 {
		t.Errorf("StormRate = %v after hot epochs, want loosened above the workload's 0.9", got)
	}
	if g.Storming() {
		t.Error("a workload at its own normal abort mix reads as a storm")
	}
	g.SetStormRate(5)
	if got := g.StormRate(); got != 0.99 {
		t.Errorf("SetStormRate(5) = %v, want clamped 0.99", got)
	}
}

// TestAdaptiveStoreLifecycle: every store owns a running Tuner with no
// option to ask for it, its epochs tick against real traffic, and Close
// stops it (idempotently).
func TestAdaptiveStoreLifecycle(t *testing.T) {
	s := NewStore(Config{Slots: 64})
	tu := s.Tuner()
	if tu == nil {
		t.Fatal("store has no Tuner")
	}
	if err := s.Put(bg, []byte("k"), []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for tu.State().Epochs == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if tu.State().Epochs == 0 {
		t.Error("tuner never ticked an epoch")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, ok, err := s.Get(bg, []byte("k")); err != nil || !ok {
		t.Errorf("closed in-memory store stopped serving: ok=%v err=%v", ok, err)
	}
}

// tunerRunning reports whether tu's sampling goroutine is live: its stack
// frame carries the Tuner's address.
func tunerRunning(tu *htm.Tuner) bool {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Contains(string(buf[:n]), fmt.Sprintf("htm.(*Tuner).run(%p)", tu))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestCloseLeavesNoTunerGoroutine: each store starts its own Tuner goroutine
// and Close ends it.
func TestCloseLeavesNoTunerGoroutine(t *testing.T) {
	// waitFor polls: a goroutine just started may not have entered its loop
	// yet, and one just stopped may still be listed while it unwinds.
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal(what)
			}
		}
	}
	stores := make([]*Store, 4)
	for i := range stores {
		stores[i] = NewStore(Config{Slots: 64})
		tu := stores[i].Tuner()
		waitFor(fmt.Sprintf("store %d: no Tuner goroutine after NewStore", i), func() bool { return tunerRunning(tu) })
	}
	for _, s := range stores {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range stores {
		tu := s.Tuner()
		waitFor(fmt.Sprintf("store %d: Tuner goroutine still running after Close", i), func() bool { return !tunerRunning(tu) })
	}
}

// TestDefaultStoreEscapesSharedCliff is the shared-footprint cliff on a
// default store: every hardware attempt is killed, so each Put completes on
// the fallback, and eight clients hammer ONE key, so the fine-grained
// fallback runs queue on one lock-set (stalls stretch each hold). The store's
// own Tuner, with no option set, must move the heap to the global lock, and
// hand it back to fine-grained once the storm ends.
func TestDefaultStoreEscapesSharedCliff(t *testing.T) {
	s := newTestStore(t, Config{
		Slots:       64,
		PoolThreads: 8,
		MaxRetries:  1,
		Faults:      &htm.FaultPlan{Seed: 7, BeginProb: 1, StallProb: 1, StallSpins: 64},
	})
	h := s.Heap()
	if h.FallbackMode() != htm.ModeFine {
		t.Fatalf("default store starts in %v mode, want fine", h.FallbackMode())
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := s.Put(bg, []byte("hot"), []byte("v"), 0); err != nil {
					t.Error(err)
					return
				}
				// A client between requests: without the yield, one CPU
				// hands the lock-set straight back to the same client and
				// the others wait out whole epochs on one acquisition.
				runtime.Gosched()
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for h.FallbackMode() != htm.ModeGlobal && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if h.FallbackMode() != htm.ModeGlobal {
		t.Fatalf("default store never left fine mode under a shared fallback storm: %s", h.Stats())
	}
	deadline = time.Now().Add(5 * time.Second)
	for h.FallbackMode() != htm.ModeFine && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if h.FallbackMode() != htm.ModeFine {
		t.Fatalf("default store stayed in global mode after the storm: %s", h.Stats())
	}
	if sw := h.SweepMeta(); sw.Locked != 0 || sw.FallbackTagged != 0 {
		t.Errorf("sweep not clean after the storm: %+v", sw)
	}
}

// TestStatsAdaptiveSection checks the /stats surface: every store reports
// the tuner block, and an admission-controlled server its live storm_rate.
func TestStatsAdaptiveSection(t *testing.T) {
	sv := NewServer(newTestStore(t, Config{Slots: 256}), WithAdmissionControl())
	ts := httptest.NewServer(sv)
	defer ts.Close()

	resp, body := doReq(t, http.MethodGet, ts.URL+"/stats", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("/stats = %d", resp.StatusCode)
	}
	var st struct {
		Adaptive  map[string]any `json:"adaptive"`
		Admission map[string]any `json:"admission"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Adaptive == nil {
		t.Fatal("/stats missing adaptive section")
	}
	if st.Adaptive["mode"] != "fine" {
		t.Errorf("adaptive.mode = %v, want fine", st.Adaptive["mode"])
	}
	for _, k := range []string{"mode_switches", "epochs"} {
		if _, ok := st.Adaptive[k]; !ok {
			t.Errorf("adaptive section missing %q", k)
		}
	}
	for _, k := range []string{"storm_rate", "storming", "sheds"} {
		if _, ok := st.Admission[k]; !ok {
			t.Errorf("admission section missing %q", k)
		}
	}
}
