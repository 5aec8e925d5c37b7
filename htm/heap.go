package htm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Metadata encoding. Each heap word has one metadata word, which fuses the
// versioned ownership record (orec) with the allocation state that used to
// live in a separate generation array:
//
//	bit 0     lock bit (held during commit write-back and NT writes)
//	bit 1     allocated bit (set while the word belongs to a live block)
//	bits 2-63 version: the global clock tick of the word's last transition
//
// Folding both cells into one atomic word makes every transactional load's
// entire validation predicate — unlocked, allocated, version ≤ rv — a single
// atomic read whose three fields are mutually consistent by construction, and
// makes every allocate/free transition a single CAS per word. Invariants:
//
//   - Only live words are ever locked (all lock paths check the allocated bit
//     in the same word they CAS), so free words are always unlocked and the
//     allocator can transition them without a lock handshake.
//   - Every transition writes a fresh version drawn from the clock: commit
//     write-back, NT writes, free, AND allocate. Writers that hold the
//     affected metadata locks (commits, NT ops, the fallback) tick after
//     acquiring them; alloc/free own their block exclusively. Versions are
//     strictly monotonic, which is what keeps recorded metadata words
//     unrepeatable. The version bump on free is the generation flip of the
//     old design; the bump on allocate is what forces any transaction that
//     read the block's previous life to revalidate (and fail) before it can
//     observe the new one. See DESIGN.md "Per-word metadata" for the sandbox
//     and linearization arguments, and "Why one clock" for why the clock is
//     a single word.
const (
	metaLockBit  uint64 = 1 << 0
	metaAllocBit uint64 = 1 << 1
	metaVerShift        = 2

	// metaFBTagBit marks a word locked by the fine-grained TLE fallback
	// (thread.go). While a fallback operation holds a word, the version field
	// carries the owner's thread ID instead of a version — the pre-lock word
	// is preserved in the owner's lock-set and the release writes either that
	// word back (read-locked) or a fresh version (written), so no version
	// information is lost and version monotonicity is preserved. The tag sits
	// in the version field's top bit: the clock ticks once per committed
	// write/alloc/free transition, so a real version can never reach 2^61.
	// The tag lets a contending fallback distinguish a long-held fallback lock (apply the deadlock-avoidance protocol) from a commit
	// write-back (always short: commits never wait while holding locks, so
	// spinning is safe), and makes the owner readable in a debugger.
	metaFBTagBit uint64 = 1 << 63
)

func metaVersion(m uint64) uint64 { return m >> metaVerShift }
func metaLocked(m uint64) bool    { return m&metaLockBit != 0 }
func metaAllocated(m uint64) bool { return m&metaAllocBit != 0 }

// makeFallbackMeta builds the metadata word for a fallback-locked live word:
// locked, allocated, fallback-tagged, owner ID in the version field.
func makeFallbackMeta(owner uint64) uint64 {
	return metaFBTagBit | owner<<metaVerShift&^metaFBTagBit | metaAllocBit | metaLockBit
}

// metaFallbackLocked reports whether m is held by a fallback lock-set (as
// opposed to a commit write-back or NT operation, which hold the bare lock
// bit for a bounded burst).
func metaFallbackLocked(m uint64) bool {
	return m&(metaFBTagBit|metaLockBit) == metaFBTagBit|metaLockBit
}

// metaFallbackOwner extracts the owner thread ID from a fallback-locked word.
func metaFallbackOwner(m uint64) uint64 {
	return m &^ (metaFBTagBit | metaAllocBit | metaLockBit) >> metaVerShift
}

func makeMeta(version uint64, allocated bool) uint64 {
	m := version << metaVerShift
	if allocated {
		m |= metaAllocBit
	}
	return m
}

// Heap is a simulated word-addressable memory with a built-in allocator and a
// transactional engine. All concurrent access — transactional or not — must
// go through its methods; a Heap is safe for use by multiple goroutines.
type Heap struct {
	cfg Config

	words []atomic.Uint64 // word values
	meta  []atomic.Uint64 // per-word metadata: lock | allocated | version

	// clock is the global version clock, alone on its cache line: every
	// write commit, alloc and free ticks it, and the read-mostly words beside
	// it (read at every begin) must not share that line.
	_     [64]byte
	clock atomic.Uint64
	_     [56]byte

	// Global TLE fallback lock (ModeGlobal; see adaptive.go): fallbackSeq is
	// even when free and odd while held; transactions snapshot it at begin
	// and validate it at extension and commit. The fine-grained fallback
	// acquires per-word metadata locks instead (see thread.go) and leaves the
	// sequence even, so in fine mode a begin never waits.
	fallbackSeq atomic.Uint64
	fallbackMu  sync.Mutex

	// Runtime contention-management words (see adaptive.go). fbMode is the
	// fallback mode consulted at fallback entry (Config.GlobalFallback only
	// seeds it); modeSwitches counts applied mode changes.
	fbMode       atomic.Uint32
	modeSwitches atomic.Uint64

	// Keeps the allocator's shared live counters (stats) off the cache line
	// of the words every begin reads.
	_ [64]byte

	alloc   allocator
	stats   stats
	nextTID atomic.Uint64

	// ntAccesses drives cooperative yields for non-transactional accesses
	// when Config.YieldEvery is set, so that HTM-free algorithms pay the
	// same simulated per-access time as transactional ones on
	// under-provisioned hosts. ntYieldThresh is 2^64/YieldEvery (0 = never),
	// making the per-access decision a hash-and-compare, not a division.
	ntAccesses    atomic.Uint64
	ntYieldThresh uint64

	// dedupAfter is the read-set length at which an attempt engages dedup:
	// min(bypassReadCap, MaxReadSet/2). The MaxReadSet/2 clamp is what keeps
	// the AbortCapacity guarantee (see Txn's dedup field).
	dedupAfter int
}

// NewHeap creates a Heap with the given configuration (zero value for
// Rock-like defaults).
func NewHeap(cfg Config) *Heap {
	cfg = cfg.withDefaults()
	h := &Heap{
		cfg:   cfg,
		words: make([]atomic.Uint64, cfg.Words),
		meta:  make([]atomic.Uint64, cfg.Words),
	}
	h.ntYieldThresh = yieldThreshold(cfg.YieldEvery)
	if cfg.GlobalFallback {
		h.fbMode.Store(uint32(ModeGlobal))
	}
	h.dedupAfter = bypassReadCap
	if mrs := cfg.MaxReadSet; mrs >= 0 && mrs/2 < h.dedupAfter {
		h.dedupAfter = mrs / 2
	}
	h.alloc.init(h)
	return h
}

// tick advances the version clock and returns the new version. Callers must
// already exclude every concurrent writer of the metadata words the version
// will be stored to (by holding their locks, or — for alloc/free — by owning
// the block).
func (h *Heap) tick() uint64 { return h.clock.Add(1) }

// Config returns the effective configuration of the heap.
func (h *Heap) Config() Config { return h.cfg }

// valid reports whether a is a non-nil address inside the arena.
func (h *Heap) valid(a Addr) bool {
	return a != NilAddr && int(a) < len(h.words)
}

// allocated reports whether the word at a is currently allocated.
func (h *Heap) allocated(a Addr) bool {
	return h.valid(a) && metaAllocated(h.meta[a].Load())
}

// yieldThreshold converts Config.YieldEvery into the compare threshold used
// by the per-access yield checks: a uniformly random uint64 falls below it
// with probability 1/y. YieldEvery=1 saturates to always-yield (the naive
// 2^64/1+1 would wrap to zero and disable yielding entirely).
func yieldThreshold(y int) uint64 {
	switch {
	case y <= 0:
		return 0
	case y == 1:
		return ^uint64(0)
	default:
		return ^uint64(0)/uint64(y) + 1
	}
}

// maybeYieldNT models access time for non-transactional operations; see
// Config.YieldEvery. A shared counter (cheap on the hosts where this is on)
// spreads yields across all NT traffic; hashing it keeps the expected rate at
// one yield per YieldEvery accesses without a per-access division.
func (h *Heap) maybeYieldNT() {
	if h.ntYieldThresh != 0 {
		if h.ntAccesses.Add(1)*0x9E3779B97F4A7C15 < h.ntYieldThresh {
			runtime.Gosched()
		}
	}
}

func (h *Heap) checkNTAddr(a Addr, op string) {
	if !h.valid(a) {
		panic(fmt.Sprintf("htm: non-transactional %s through invalid address %#x (simulated segmentation fault)", op, uint32(a)))
	}
}

func ntFreedPanic(a Addr, op string) {
	panic(fmt.Sprintf("htm: non-transactional %s of freed word %#x (simulated segmentation fault)", op, uint32(a)))
}

// lockMeta spin-acquires the metadata word of a and returns the
// pre-acquisition value. The allocated check rides in the same CAS'd word, so
// lock acquisition and the liveness check are one atomic step; it panics on
// freed words (simulated segmentation fault: correct non-transactional code
// never writes freed memory). A held lock is either a commit write-back
// (short) or a fallback lock-set hold (potentially long — the owner may be
// descheduled mid-operation), so the loop yields periodically instead of
// burning the core.
func (h *Heap) lockMeta(a Addr, op string) uint64 {
	for spins := 0; ; spins++ {
		m := h.meta[a].Load()
		if !metaAllocated(m) {
			ntFreedPanic(a, op)
		}
		if !metaLocked(m) && h.meta[a].CompareAndSwap(m, m|metaLockBit) {
			return m
		}
		if spins&63 == 63 {
			runtime.Gosched()
		}
	}
}

// releaseMeta publishes a new version for the previously locked live word a.
func (h *Heap) releaseMeta(a Addr, version uint64) {
	h.meta[a].Store(makeMeta(version, true))
}

// releaseMetaUnchanged unlocks the word a without changing its version, used
// when a locked word was not actually modified.
func (h *Heap) releaseMetaUnchanged(a Addr, prev uint64) {
	h.meta[a].Store(prev)
}

// LoadNT performs a non-transactional (strongly atomic) load of the word at
// a. It panics if a is invalid or freed, modeling a segmentation fault:
// correct non-transactional code never touches freed memory.
func (h *Heap) LoadNT(a Addr) uint64 {
	h.maybeYieldNT()
	h.checkNTAddr(a, "load")
	for spins := 0; ; spins++ {
		m1 := h.meta[a].Load()
		if metaLocked(m1) {
			if spins&63 == 63 {
				runtime.Gosched()
			}
			continue
		}
		if !metaAllocated(m1) {
			ntFreedPanic(a, "load")
		}
		v := h.words[a].Load()
		if h.meta[a].Load() == m1 {
			return v
		}
	}
}

// StoreNT performs a non-transactional (strongly atomic) store of v to the
// word at a. It is equivalent to — but cheaper than — a one-word transaction,
// and conflicts correctly with concurrent transactions.
func (h *Heap) StoreNT(a Addr, v uint64) {
	h.maybeYieldNT()
	h.checkNTAddr(a, "store")
	h.lockMeta(a, "store")
	h.words[a].Store(v)
	h.releaseMeta(a, h.tick())
}

// CASNT performs a non-transactional compare-and-swap on the word at a,
// returning whether the swap was performed. It models the CAS instruction
// used by the paper's non-HTM baseline algorithms.
func (h *Heap) CASNT(a Addr, old, new uint64) bool {
	h.maybeYieldNT()
	h.checkNTAddr(a, "cas")
	prev := h.lockMeta(a, "cas")
	if h.words[a].Load() != old {
		h.releaseMetaUnchanged(a, prev)
		return false
	}
	h.words[a].Store(new)
	h.releaseMeta(a, h.tick())
	return true
}

// AddNT atomically adds delta to the word at a non-transactionally and
// returns the new value.
func (h *Heap) AddNT(a Addr, delta uint64) uint64 {
	h.maybeYieldNT()
	h.checkNTAddr(a, "add")
	h.lockMeta(a, "add")
	v := h.words[a].Load() + delta
	h.words[a].Store(v)
	h.releaseMeta(a, h.tick())
	return v
}

// ClockNow returns the current value of the global version clock. It is
// exported for tests and diagnostics.
func (h *Heap) ClockNow() uint64 { return h.clock.Load() }
