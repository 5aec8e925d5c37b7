package htm

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

const numAbortCodes = int(AbortSpurious) + 1

// statCell is one thread's statistics block. Each Thread owns a cell and
// updates only it, so the counters are uncontended in steady state; the cell
// is padded to 64-byte cache lines so cells that end up adjacent in memory
// never false-share. The fields are atomics only so that Heap.Stats may read
// them while threads run.
type statCell struct {
	starts          atomic.Uint64
	commits         atomic.Uint64
	aborts          [numAbortCodes]atomic.Uint64
	fallbackRuns    atomic.Uint64
	fallbackLocks   atomic.Uint64
	fallbackRetries atomic.Uint64
	fallbackStalls  atomic.Uint64
	allocCalls      atomic.Uint64
	freeCalls       atomic.Uint64
	allocWords      atomic.Uint64
	freeWords       atomic.Uint64
	dedupEngages    atomic.Uint64
	fallbackWaits   atomic.Uint64
	// inCommit and inFine are NOT statistics: they are the quiesce-barrier
	// words (see adaptive.go). inCommit is nonzero while this thread's
	// hardware commit write-back is in flight, inFine while a fine-grained
	// fallback run is. They live in the cell because the cell registry is
	// already the heap's per-thread scan list; like the counters, each has a
	// single writer (its owning thread) and is read by others — here the
	// global-fallback acquirer draining the heap.
	inCommit atomic.Uint64
	inFine   atomic.Uint64
	// 22 words; padded to three full cache lines (192 B).
	_ [2]uint64
}

// statCellBytes pins statCell's intended footprint: whole cache lines, so
// adjacent cells never false-share. The paired constant expressions below are
// a compile-time assertion — uintptr underflow is a constant-overflow build
// error — so adding a counter without re-padding cannot silently split a cell
// across a line boundary again.
const statCellBytes = 192

const (
	_ = statCellBytes - unsafe.Sizeof(statCell{}) // fails to build if the cell grew
	_ = unsafe.Sizeof(statCell{}) - statCellBytes // fails to build if the cell shrank
)

// stats is the heap-internal statistics block: a registry of per-thread
// cells, plus the exact global live/high-water pair maintained on the alloc
// path unless Config.NoMaxLive is set (throughput-only runs).
//
// The registry is copy-on-write: register (rare — once per NewThread)
// rebuilds the slice under mu, readers load the current slice pointer with no
// lock and no allocation. That matters because quiesceForGlobal reads it
// inside every global-fallback critical section — a mutex plus a
// slice copy there would tax the exact serial path the mode switch is trying
// to make fast.
type stats struct {
	liveWords    atomic.Uint64
	maxLiveWords atomic.Uint64

	mu    sync.Mutex // serializes register
	cells atomic.Pointer[[]*statCell]
}

// bump and bumpBy update a statCell counter. Each cell has a single writer
// (its owning thread), so a plain load+store pair — two MOVs on x86 — stands
// in for the atomic read-modify-write; the fields stay atomic only so that
// Heap.Stats can read them concurrently without a data race.
func bump(c *atomic.Uint64) { c.Store(c.Load() + 1) }

func bumpBy(c *atomic.Uint64, n uint64) { c.Store(c.Load() + n) }

// register adds a fresh cell for a new thread (copy-on-write).
func (st *stats) register() *statCell {
	c := &statCell{}
	st.mu.Lock()
	var cells []*statCell
	if old := st.cells.Load(); old != nil {
		cells = append(cells, *old...)
	}
	cells = append(cells, c)
	st.cells.Store(&cells)
	st.mu.Unlock()
	return c
}

// snapshotCells returns the current registry: an immutable slice, safe to
// iterate without locking. Threads registered after the load are absent, which
// every caller already tolerates (sums can only lag, and the quiesce barrier's
// newcomers self-exclude by observing the odd fallback sequence).
func (st *stats) snapshotCells() []*statCell {
	if p := st.cells.Load(); p != nil {
		return *p
	}
	return nil
}

// cellLive sums the per-thread words counters into a current live estimate,
// clamped at zero (a mid-flight snapshot can observe a free before the
// matching alloc on another cell).
func (st *stats) cellLive() uint64 {
	var alloc, freed uint64
	for _, c := range st.snapshotCells() {
		alloc += c.allocWords.Load()
		freed += c.freeWords.Load()
	}
	if freed > alloc {
		return 0
	}
	return alloc - freed
}

// Stats is a point-in-time snapshot of heap and transaction statistics.
type Stats struct {
	// Starts is the number of transaction attempts begun.
	Starts uint64
	// Commits is the number of attempts that committed.
	Commits uint64
	// Aborts counts failed attempts by reason.
	Aborts map[AbortCode]uint64
	// FallbackRuns is the number of operations completed on the TLE fallback
	// path (fine-grained lock-set or global lock).
	FallbackRuns uint64
	// FallbackLocks counts per-word metadata lock acquisitions by the
	// fine-grained fallback (0 in ModeGlobal).
	FallbackLocks uint64
	// FallbackRetries counts fine-grained fallback attempts that released
	// their whole lock-set and re-ran the operation body — the
	// deadlock-avoidance release-and-retry path.
	FallbackRetries uint64
	// FallbackWaits counts fine-grained fallback lock acquisitions that
	// collided with another operation's held lock-set (at most one count per
	// acquisition, however long the wait). Unlike FallbackRetries — which
	// only fires on OUT-OF-ORDER collisions — this counts in-order convoying
	// too, so its per-run rate is the Tuner's shared-footprint signal: 0 when
	// fallback footprints are disjoint, ~1+ when every run queues behind the
	// same words.
	FallbackWaits uint64
	// FallbackStalls counts injected lock-holder stall windows executed on the
	// fallback path (Config.Faults with StallProb > 0); 0 without injection.
	FallbackStalls uint64
	// AllocCalls and FreeCalls count allocator operations.
	AllocCalls, FreeCalls uint64
	// DedupEngages counts transaction attempts that crossed the DedupBypass
	// threshold and compacted their read set (see Config.DedupBypass). The
	// Tuner reads its rate as the signal that the bypass budget is being
	// exhausted.
	DedupEngages uint64
	// ModeSwitches counts runtime fallback-mode changes applied through
	// Heap.SetFallbackMode. It is a heap-level
	// counter, not a per-thread one: switches are rare control-plane events.
	ModeSwitches uint64
	// LiveWords is the number of currently allocated payload words;
	// MaxLiveWords is its high-water mark. These drive the paper's
	// space-usage comparisons and are exact in the default configuration.
	// With Config.NoMaxLive both are derived from unsynchronized per-thread
	// counters: exact when snapshotted at quiescence (how the harness uses
	// them), approximate — possibly in either direction — if snapshotted
	// mid-run. Space-measured experiments must not set NoMaxLive.
	LiveWords, MaxLiveWords uint64
}

// SpuriousAborts returns the number of attempts killed by fault injection —
// Aborts[AbortSpurious], named for the overload detectors that watch it.
func (s Stats) SpuriousAborts() uint64 { return s.Aborts[AbortSpurious] }

// TotalAborts returns the sum of aborts across all reasons.
func (s Stats) TotalAborts() uint64 {
	var t uint64
	for _, n := range s.Aborts {
		t += n
	}
	return t
}

// AbortRate returns aborted attempts as a fraction of all attempts, or 0 if
// no attempts were made.
func (s Stats) AbortRate() float64 {
	if s.Starts == 0 {
		return 0
	}
	return float64(s.TotalAborts()) / float64(s.Starts)
}

// String renders the snapshot as a single diagnostic line.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "starts=%d commits=%d aborts=%d (", s.Starts, s.Commits, s.TotalAborts())
	first := true
	for c := AbortConflict; c <= AbortSpurious; c++ {
		if n := s.Aborts[c]; n > 0 {
			if !first {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%s=%d", c, n)
			first = false
		}
	}
	fmt.Fprintf(&b, ") fallback=%d fblocks=%d fbretries=%d fbwaits=%d fbstalls=%d alloc=%d free=%d live=%dw maxLive=%dw",
		s.FallbackRuns, s.FallbackLocks, s.FallbackRetries, s.FallbackWaits, s.FallbackStalls,
		s.AllocCalls, s.FreeCalls, s.LiveWords, s.MaxLiveWords)
	if s.ModeSwitches > 0 {
		fmt.Fprintf(&b, " modeswitches=%d", s.ModeSwitches)
	}
	return b.String()
}

// Stats returns a snapshot of the heap's counters, aggregated across all
// per-thread cells. Counters are read without mutual exclusion, so concurrent
// activity may be partially reflected; this is acceptable for the reporting
// the snapshot feeds, and the snapshot is exact at quiescence.
func (h *Heap) Stats() Stats {
	s := Stats{Aborts: make(map[AbortCode]uint64, numAbortCodes)}
	s.ModeSwitches = h.modeSwitches.Load()
	for _, c := range h.stats.snapshotCells() {
		s.Starts += c.starts.Load()
		s.Commits += c.commits.Load()
		s.FallbackRuns += c.fallbackRuns.Load()
		s.FallbackLocks += c.fallbackLocks.Load()
		s.FallbackRetries += c.fallbackRetries.Load()
		s.FallbackWaits += c.fallbackWaits.Load()
		s.FallbackStalls += c.fallbackStalls.Load()
		s.AllocCalls += c.allocCalls.Load()
		s.FreeCalls += c.freeCalls.Load()
		s.DedupEngages += c.dedupEngages.Load()
		for code := 1; code < numAbortCodes; code++ {
			if n := c.aborts[code].Load(); n > 0 {
				s.Aborts[AbortCode(code)] += n
			}
		}
	}
	if h.cfg.trackMaxLive {
		s.LiveWords = h.stats.liveWords.Load()
		s.MaxLiveWords = h.stats.maxLiveWords.Load()
		return s
	}
	live := h.stats.cellLive()
	s.LiveWords = live
	for {
		m := h.stats.maxLiveWords.Load()
		if live <= m || h.stats.maxLiveWords.CompareAndSwap(m, live) {
			break
		}
	}
	s.MaxLiveWords = h.stats.maxLiveWords.Load()
	return s
}

// ResetMaxLive resets the live-words high-water mark to the current live
// count, so space measurements can be scoped to an experiment phase.
func (h *Heap) ResetMaxLive() {
	if h.cfg.trackMaxLive {
		h.stats.maxLiveWords.Store(h.stats.liveWords.Load())
		return
	}
	h.stats.maxLiveWords.Store(h.stats.cellLive())
}
