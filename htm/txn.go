package htm

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// txnAbort is the internal panic payload used to unwind a failed transaction
// attempt back to the retry loop from inside the transaction body. It is a
// preallocated sentinel — panicking with it never allocates, and it can never
// be mistaken for a user panic; the abort's code and address travel in the
// Txn. Aborts detected at commit time (after the body returned) skip panic
// unwinding entirely and propagate by return value.
type txnAbort struct{}

var abortSentinel = &txnAbort{}

// readEntry records one read: the address and the full metadata word observed
// when the value was read (unlocked, allocated, version ≤ rv at that time).
// Validation is a single load-and-compare against the live metadata: any
// concurrent commit, free, or reallocation of the word rewrites the one
// metadata word the validator rereads.
type readEntry struct {
	addr Addr
	meta uint64
}

// writeEntry buffers one write: the address, the value, and the metadata
// word observed when the store was buffered (lock bit cleared). Commit
// acquisition CASes the live metadata from exactly this recorded word, so a
// word that changed in ANY way since the store — a concurrent commit, an NT
// write, a free, or a free-and-reallocation — fails acquisition and aborts.
// Version monotonicity makes the recorded word unrepeatable, which is what
// keeps a blind write from ever landing in a reused block's new life.
type writeEntry struct {
	addr Addr
	val  uint64
	meta uint64
}

// lockEntry records one word held by a fine-grained fallback operation: its
// address, the metadata word displaced by the lock acquisition (restored
// verbatim if the word is released unwritten), and whether the operation
// buffered a store under it (released with a fresh version instead).
type lockEntry struct {
	addr    Addr
	prev    uint64
	written bool
}

// Txn is a transaction in progress. A Txn is valid only inside the function
// passed to Thread.Atomic or Thread.TryAtomic, and only on that goroutine.
//
// The transaction body may be re-executed after an abort, so it must be
// restartable: accumulate results in locals that are reset at the top of the
// body, and publish them only after Atomic returns.
type Txn struct {
	th *Thread
	h  *Heap
	// rv is the read-validity snapshot of the version clock, taken at begin
	// and advanced by extend(): a version is readable iff it is <= rv (the
	// classic TL2 timestamp).
	rv     uint64
	fbSeq  uint64 // fallback-lock sequence observed at begin
	reads  []readEntry
	writes []writeEntry
	frees  []Addr // to free after commit
	allocs []Addr // allocated inside the txn; rolled back on abort
	direct bool   // executing on the TLE fallback path

	// abortCode/abortAddr carry the failure reason of an in-body abort while
	// the abortSentinel panic unwinds to the retry loop.
	abortCode AbortCode
	abortAddr Addr

	// Hot-path caches of immutable heap state, set once when the descriptor
	// is bound to its thread: they save a pointer chase through t.h (and its
	// cfg) on every transactional access.
	words        []atomic.Uint64
	meta         []atomic.Uint64
	yieldThresh  uint64 // rand() below this yields; 0 = never (see maybeYield)
	maxReadSet   int
	storeBufSize int
	dedupAfter   int // read-set length at which dedup engages (see below)

	// Fault injection (Config.Faults): faults is the owning thread's injection
	// state (nil without a plan — one pointer check per access), fbDelay the
	// injected yield count between fallback write-back and lock-set release.
	faults  *threadFaults
	fbDelay int

	// Read-set dedup state. Attempts start in BYPASS mode: loads append to
	// the read set without any duplicate tracking — duplicate entries are
	// harmless for correctness (validation and commit re-check the same
	// predicate once per entry, and all duplicates of one address provably
	// hold identical metadata) and the common scan-shaped transaction has
	// none, so it pays nothing per load. When the read set reaches
	// dedupAfter entries (MaxReadSet pressure), engageDedup compacts the
	// duplicates away and switches the attempt to FILTERED mode: rfilter is
	// a 512-bit presence filter over read addresses (two hash bits per
	// address); a load whose bits are clear is definitely new and appends
	// without any lookup. When both bits are set the read is confirmed
	// against rindex, built lazily on the first suspected repeat (rindexed
	// tracks whether it is current for this attempt). This keeps the
	// AbortCapacity guarantee of dedup — a transaction whose DISTINCT read
	// set fits MaxReadSet never aborts for capacity — while removing the
	// per-load filter cost from transactions that never near the bound.
	dedup    bool
	rfilter  [readFilterWords]uint64
	rindexed bool
	rindex   setIndex

	// windex indexes the write set by address once it outgrows setLinearMax,
	// keeping read-own-writes lookups O(1). It is rebuilt from scratch when
	// the set crosses the threshold, so reset() does not need to touch it.
	windex setIndex

	// Fine-grained fallback state (see thread.go runFallback). locks is the
	// lock-set: every word this fallback operation holds, with its displaced
	// metadata. lindex indexes it past setLinearMax, exactly as windex does
	// the write set. fbMax is the highest address currently held — the
	// ordered-acquisition watermark the deadlock-avoidance protocol compares
	// against. fbOwner is the thread ID masked to FallbackOwnerBits, recorded
	// in each held word's metadata. directGlobal is per-run state: this
	// fallback run executes under the global lock with direct NT access (set
	// by runGlobalFallback).
	locks        []lockEntry
	lindex       setIndex
	fbMax        Addr
	fbOwner      uint64
	directGlobal bool
}

// readFilterWords sizes rfilter; 8 words = 512 bits keeps the false-positive
// rate low for read sets up to a few hundred words.
const readFilterWords = 8

// readFilterBits maps an address to its filter word and two-bit mask (two
// hash bits within one filter word: one load tests both, one store sets
// both). Shared by Load's filtered path and engageDedup's rebuild.
func readFilterBits(a Addr) (fw uint32, mask uint64) {
	hb := idxHash(a)
	return (hb >> 12) & (readFilterWords - 1), uint64(1)<<(hb&63) | uint64(1)<<((hb>>6)&63)
}

// bypassReadCap bounds how long an attempt may stay in read-set bypass mode
// when MaxReadSet is unbounded (or enormous), so pathological repeat-heavy
// bodies cannot grow the duplicated read set without limit.
const bypassReadCap = 4096

// findWrite returns the write-set slot holding a, or -1.
func (t *Txn) findWrite(a Addr) int {
	w := t.writes
	if len(w) <= setLinearMax {
		for i := range w {
			if w[i].addr == a {
				return i
			}
		}
		return -1
	}
	return t.windex.lookup(a)
}

// addWrite appends a new write entry, indexing it past the linear threshold.
func (t *Txn) addWrite(a Addr, v, meta uint64) {
	t.writes = append(t.writes, writeEntry{addr: a, val: v, meta: meta})
	if n := len(t.writes); n > setLinearMax {
		if n == setLinearMax+1 {
			t.windex.reset()
			for i := range t.writes {
				t.windex.insert(t.writes[i].addr, i)
			}
		} else {
			t.windex.insert(a, n-1)
		}
	}
}

// findLock returns the lock-set slot holding a, or -1. Same shape as
// findWrite: linear scan up to setLinearMax, indexed lookup above.
func (t *Txn) findLock(a Addr) int {
	l := t.locks
	if len(l) <= setLinearMax {
		for i := range l {
			if l[i].addr == a {
				return i
			}
		}
		return -1
	}
	return t.lindex.lookup(a)
}

// addLock appends a newly acquired word to the lock-set, indexing it past the
// linear threshold, and returns its slot.
func (t *Txn) addLock(a Addr, prev uint64) int {
	t.locks = append(t.locks, lockEntry{addr: a, prev: prev})
	n := len(t.locks)
	if n > setLinearMax {
		if n == setLinearMax+1 {
			t.lindex.reset()
			for i := range t.locks {
				t.lindex.insert(t.locks[i].addr, i)
			}
		} else {
			t.lindex.insert(a, n-1)
		}
	}
	if a > t.fbMax {
		t.fbMax = a
	}
	return n - 1
}

// defaultFallbackSpins bounds how long a fallback operation try-locks a word
// BELOW its acquisition watermark before releasing everything and retrying.
// Waiting on a word above every held address follows the global address
// order and cannot deadlock, so in-order waits are unbounded; out-of-order
// waits are where cycles form, so they are bounded. DESIGN.md "Adaptive
// contention management" records the phase-shift measurements that chose
// the value.
const defaultFallbackSpins = 16

// fbAcquire takes the fine-grained fallback lock on the metadata word of a
// and returns its lock-set slot (immediately, if already held). Deadlock
// avoidance is ordered try-lock with bounded backoff: acquiring above the
// watermark may wait indefinitely (address order is a global total order, so
// such waits cannot cycle; hardware commits and NT
// operations never wait while holding locks and are waited out
// unconditionally), while acquiring below it try-locks defaultFallbackSpins
// times and then aborts the attempt — the runFallback loop releases the entire
// lock-set, backs off with jitter, and re-runs the body. The owner ID recorded
// in the held word lets a contending fallback see who holds it in a debugger
// and turns a same-thread re-lock — impossible unless the lock-set invariant
// broke — into a loud panic instead of a silent self-deadlock.
func (t *Txn) fbAcquire(a Addr, op string) int {
	if i := t.findLock(a); i >= 0 {
		return i
	}
	locked := makeFallbackMeta(t.fbOwner)
	waited := false
	for spins := 0; ; spins++ {
		m := t.meta[a].Load()
		switch {
		case !metaLocked(m):
			if !metaAllocated(m) {
				t.accessFault(a, op)
			}
			if t.meta[a].CompareAndSwap(m, locked) {
				bump(&t.th.cell.fallbackLocks)
				return t.addLock(a, m)
			}
		case metaFallbackLocked(m):
			if metaFallbackOwner(m) == t.fbOwner {
				panic(fmt.Sprintf("htm: fallback self-deadlock: word %#x is locked by this thread but missing from its lock-set", uint32(a)))
			}
			if !waited {
				// Count the collision once per acquisition, in-order or not:
				// this is the Tuner's shared-footprint signal (FallbackWaits).
				waited = true
				bump(&t.th.cell.fallbackWaits)
			}
			// Held by another fallback operation, potentially for long.
			if len(t.locks) > 0 && a < t.fbMax && spins >= defaultFallbackSpins {
				t.abort(AbortConflict, a) // release-and-retry (runFallback)
			}
			if t.h.fallbackSeq.Load()&1 != 0 || FallbackMode(t.h.fbMode.Load()) == ModeGlobal {
				// A global critical section is pending, or the Tuner switched
				// modes mid-storm. In-order waits are normally unbounded (they
				// follow the address order, so they cannot deadlock), but an
				// unbounded wait here would hold inFine hostage to the very
				// storm the switch is meant to break — the global acquirer's
				// quiesce cannot finish until this thread drains. Abandoning
				// the attempt is always safe; the retry loop re-enters the
				// barrier and redirects to the global path.
				t.abort(AbortConflict, a)
			}
			runtime.Gosched()
		default:
			// Commit write-back or NT operation: short by construction
			// (neither ever waits while holding word locks), so spin it out.
			if spins&63 == 63 {
				runtime.Gosched()
			}
		}
	}
}

// fbLoad is Txn.Load on the fine-grained fallback path: lock the word, then
// read the word directly — the lock excludes every writer
// (commits and NT writes take the same metadata lock), so no read-set entry
// or validation is needed.
func (t *Txn) fbLoad(a Addr) uint64 {
	t.maybeYield()
	if a == NilAddr || int(a) >= len(t.words) {
		t.accessFault(a, "load")
	}
	if i := t.findWrite(a); i >= 0 {
		return t.writes[i].val
	}
	t.fbAcquire(a, "load")
	return t.words[a].Load()
}

// fbStore is Txn.Store on the fine-grained fallback path: lock the word and
// buffer the write. Buffering (rather than writing in place) is what makes
// the deadlock-avoidance release-and-retry safe: an attempt that drops its
// lock-set has published nothing. The store buffer bound does not apply —
// the fallback exists precisely to complete bodies that overflow it.
func (t *Txn) fbStore(a Addr, v uint64) {
	t.maybeYield()
	if a == NilAddr || int(a) >= len(t.words) {
		t.accessFault(a, "store")
	}
	if i := t.findWrite(a); i >= 0 {
		t.writes[i].val = v
		return
	}
	li := t.fbAcquire(a, "store")
	t.locks[li].written = true
	t.addWrite(a, v, 0) // metadata slot unused: release stores, not CASes
}

// fbRelease releases the whole lock-set: written words take a fresh live
// metadata word at version wv (the caller has already stored their values),
// read-locked words get their displaced metadata back verbatim (no
// observable transition). Pass wv=0 on abort/retry paths — buffered writes
// were never applied, so every word restores to its pre-lock state.
func (t *Txn) fbRelease(wv uint64) {
	for i := range t.locks {
		l := &t.locks[i]
		if l.written && wv != 0 {
			t.meta[l.addr].Store(makeMeta(wv, true))
		} else {
			t.meta[l.addr].Store(l.prev)
		}
	}
	t.locks = t.locks[:0]
	t.fbMax = 0
}

// InFallback reports whether this attempt is executing on the TLE fallback
// path (fine-grained lock-set or global lock) rather than as a hardware
// transaction attempt. Bodies can use it to adapt — e.g. tests that must
// synchronize only once the fallback engaged.
func (t *Txn) InFallback() bool { return t.direct }

// confirmRead reports whether a is in the read set, building the exact index
// on the first suspected repeat of this attempt.
func (t *Txn) confirmRead(a Addr) bool {
	if !t.rindexed {
		t.rindex.reset()
		for i := range t.reads {
			t.rindex.insert(t.reads[i].addr, i)
		}
		t.rindexed = true
	}
	return t.rindex.lookup(a) >= 0
}

// engageDedup switches the attempt from bypass to filtered mode: the read set
// accumulated so far is compacted in place — duplicates of one address are
// guaranteed to hold identical metadata (a load that would record a different
// metadata word first forces an extension that revalidates, and fails on, the
// earlier entry) so dropping all but the first is exact — and the presence
// filter and index are rebuilt over the survivors. Idempotent.
func (t *Txn) engageDedup() {
	if t.dedup || t.direct {
		return
	}
	t.dedup = true
	bump(&t.th.cell.dedupEngages)
	t.rfilter = [readFilterWords]uint64{}
	t.rindex.reset()
	kept := t.reads[:0]
	for i := range t.reads {
		r := t.reads[i]
		if t.rindex.lookup(r.addr) >= 0 {
			continue
		}
		t.rindex.insert(r.addr, len(kept))
		kept = append(kept, r)
		fw, m := readFilterBits(r.addr)
		t.rfilter[fw] |= m
	}
	t.reads = kept
	t.rindexed = true
}

func (t *Txn) abort(code AbortCode, a Addr) {
	t.abortCode = code
	t.abortAddr = a
	panic(abortSentinel)
}

// Abort explicitly aborts the current transaction attempt. Thread.Atomic
// retries it; Thread.TryAtomic reports it as an *AbortError with
// AbortExplicit.
func (t *Txn) Abort() {
	t.abort(AbortExplicit, NilAddr)
}

// checkAccess validates that a names an allocated word, aborting with
// AbortIllegal under sandboxing or panicking (simulated segmentation fault)
// otherwise. The direct (TLE fallback) paths call it; Load and Store inline
// the identical guard by hand because the combined check+call exceeds the
// compiler's inlining budget — keep the three copies in sync.
func (t *Txn) checkAccess(a Addr, op string) {
	if a != NilAddr && int(a) < len(t.words) && metaAllocated(t.meta[a].Load()) {
		return
	}
	t.accessFault(a, op)
}

func (t *Txn) accessFault(a Addr, op string) {
	if !t.h.cfg.NoSandbox && !t.direct {
		t.abort(AbortIllegal, a)
	}
	panic(fmt.Sprintf("htm: transactional %s of invalid or freed address %#x without sandboxing (simulated segmentation fault)", op, uint32(a)))
}

// validate checks that every read performed so far still holds the metadata
// word it held when read — one atomic load and compare per entry; a lock, a
// version bump, a free, or a reallocation all fail it.
func (t *Txn) validate() bool {
	for i := range t.reads {
		r := &t.reads[i]
		if t.meta[r.addr].Load() != r.meta {
			return false
		}
	}
	return true
}

// extend attempts to move the read-validity snapshot forward after
// encountering a version newer than rv, aborting on any stale read. This
// gives the engine HTM-like conflict behaviour: transactions abort only when
// a word they actually read or wrote is modified concurrently. The clock is
// re-read BEFORE revalidating: any write that the new snapshot admits but
// that landed before the read is caught by the equality revalidation.
func (t *Txn) extend() {
	// A timestamp extension across a global-lock fallback section could mix
	// pre- and post-section state; abort instead, exactly as a hardware
	// transaction holding the lock word in its read set would. The
	// fine-grained fallback needs no check here — a fallback that touched any
	// word this transaction read rewrote that word's metadata, so validate()
	// below catches it.
	if t.h.fallbackSeq.Load() != t.fbSeq {
		t.abort(AbortFallback, NilAddr)
	}
	t.rv = t.h.clock.Load()
	if !t.validate() {
		t.abort(AbortConflict, NilAddr)
	}
}

// maybeYield models transaction duration on under-provisioned hosts; see
// Config.YieldEvery. The yield decision is randomized (expected one yield per
// YieldEvery accesses): a deterministic cadence would park every attempt of a
// given transaction at the same point — e.g. right before commit — making
// hot-word conflicts certain instead of probable and livelocking retries.
// yieldThresh precomputes 2^64/YieldEvery so the per-access check is a
// compare, not a division.
func (t *Txn) maybeYield() {
	if t.yieldThresh != 0 {
		t.yieldSlow()
	}
}

func (t *Txn) yieldSlow() {
	if t.th.rand() < t.yieldThresh {
		runtime.Gosched()
	}
}

// Load transactionally reads the word at a.
func (t *Txn) Load(a Addr) uint64 {
	if t.direct {
		if !t.directGlobal {
			return t.fbLoad(a)
		}
		t.checkAccess(a, "load")
		return t.h.LoadNT(a)
	}
	t.maybeYield()
	// Access-site injection (hardware attempts only — the direct paths
	// returned above): the attempt dies mid-body, like a TLB miss or cache
	// displacement landing on a transactional access.
	if t.faults != nil && t.faults.fireAccess() {
		t.abort(AbortSpurious, NilAddr)
	}
	if a == NilAddr || int(a) >= len(t.words) {
		t.accessFault(a, "load")
	}
	if i := t.findWrite(a); i >= 0 {
		// Read-own-write still faults at the access if the word was freed
		// since the store — same semantics as Store and the loop below.
		if !metaAllocated(t.meta[a].Load()) {
			t.accessFault(a, "load")
		}
		return t.writes[i].val
	}
	for spins := 0; ; spins++ {
		// The entire validation predicate — unlocked, allocated, version — is
		// one atomic load: its fields are mutually consistent by construction.
		// free() rewrites this same word, so m1 carrying the allocated bit
		// plus an unchanged metadata word below proves the value is a read of
		// then-live memory.
		m1 := t.meta[a].Load()
		if m1&(metaLockBit|metaAllocBit) != metaAllocBit {
			if metaLocked(m1) {
				if spins < 64 {
					continue // writer is in its (short) commit write-back
				}
				t.abort(AbortConflict, a)
			}
			t.accessFault(a, "load")
		}
		v := t.words[a].Load()
		if t.meta[a].Load() != m1 {
			continue
		}
		if metaVersion(m1) > t.rv {
			t.extend()
			// The word may have changed again between the value read and the
			// extension; re-read under the new snapshot.
			if t.meta[a].Load() != m1 {
				continue
			}
		}
		if !t.dedup {
			// Bypass mode: append without duplicate tracking (see the dedup
			// field) until MaxReadSet pressure forces compaction.
			if len(t.reads) < t.dedupAfter {
				t.reads = append(t.reads, readEntry{addr: a, meta: m1})
				return v
			}
			t.engageDedup()
		}
		// Repeated reads do not grow the read set: the entry recorded by the
		// first read still guards this word (any later write to it carries a
		// version above rv and the extension above would have aborted), so a
		// duplicate would only inflate validate() and burn MaxReadSet
		// capacity the distinct working set never used.
		fw, m := readFilterBits(a)
		if t.rfilter[fw]&m == m && t.confirmRead(a) {
			return v
		}
		if t.maxReadSet >= 0 && len(t.reads) >= t.maxReadSet {
			t.abort(AbortCapacity, a)
		}
		t.reads = append(t.reads, readEntry{addr: a, meta: m1})
		t.rfilter[fw] |= m
		if t.rindexed {
			t.rindex.insert(a, len(t.reads)-1)
		}
		return v
	}
}

// Store transactionally writes v to the word at a. Writes are buffered and
// become visible atomically at commit. Writing more distinct words than the
// configured store buffer size aborts with AbortOverflow, reproducing Rock's
// bounded transactions.
func (t *Txn) Store(a Addr, v uint64) {
	if t.direct {
		if !t.directGlobal {
			t.fbStore(a, v)
			return
		}
		t.checkAccess(a, "store")
		t.h.StoreNT(a, v)
		return
	}
	t.maybeYield()
	// Access-site injection; see Load.
	if t.faults != nil && t.faults.fireAccess() {
		t.abort(AbortSpurious, NilAddr)
	}
	if a == NilAddr || int(a) >= len(t.words) {
		t.accessFault(a, "store")
	}
	m := t.meta[a].Load()
	if !metaAllocated(m) {
		t.accessFault(a, "store")
	}
	if i := t.findWrite(a); i >= 0 {
		t.writes[i].val = v
		return
	}
	if t.storeBufSize >= 0 && len(t.writes) >= t.storeBufSize {
		t.abort(AbortOverflow, a)
	}
	// Record the metadata with the lock bit cleared: a word locked right now
	// is mid-commit elsewhere, and its release will bump the version, so our
	// commit's CAS from this recorded word correctly fails as a conflict.
	t.addWrite(a, v, m&^metaLockBit)
}

// Add transactionally adds delta to the word at a and returns the new value.
func (t *Txn) Add(a Addr, delta uint64) uint64 {
	v := t.Load(a) + delta
	t.Store(a, v)
	return v
}

// FreeOnCommit schedules the block whose payload starts at a to be freed
// after — and only if — this transaction commits. This is the paper's idiom
// of freeing memory immediately after the transaction that unlinks it (e.g.
// the HTM queue's dequeue, or line 130 of the ArrayDynAppendDereg
// pseudocode).
func (t *Txn) FreeOnCommit(a Addr) {
	t.frees = append(t.frees, a)
}

// Alloc allocates a zeroed block of size words inside the transaction,
// rolled back if the transaction aborts. It panics unless the heap was
// configured with AllowAllocInTxn: Rock could not execute the CAS-based
// malloc inside transactions (paper §6), so the paper's algorithms
// pre-allocate outside transactions.
func (t *Txn) Alloc(size int) Addr {
	if !t.h.cfg.AllowAllocInTxn {
		panic("htm: Txn.Alloc requires Config.AllowAllocInTxn (Rock cannot allocate inside transactions; pre-allocate outside, as the paper's algorithms do)")
	}
	a := t.th.Alloc(size)
	// Tracked even on the fallback path: a fine-grained fallback attempt can
	// release-and-retry (deadlock avoidance), which must roll its allocations
	// back exactly as an aborted hardware attempt does. Committed attempts
	// clear the list without freeing.
	t.allocs = append(t.allocs, a)
	return a
}

// rollbackAllocs frees blocks allocated inside an aborted attempt.
func (t *Txn) rollbackAllocs() {
	for _, a := range t.allocs {
		t.th.Free(a)
	}
	t.allocs = t.allocs[:0]
}

// commit attempts to atomically publish the transaction's writes. It returns
// the zero AbortCode on success and the failure reason otherwise; running
// after the transaction body has returned, it can report aborts by value and
// skip panic unwinding entirely.
func (t *Txn) commit() (AbortCode, Addr) {
	h := t.h
	if t.direct {
		if !t.directGlobal {
			// Fine-grained fallback: write the buffered stores back under the
			// held locks, then release every word — written words with one
			// fresh version tick shared by the whole operation (exactly as a
			// hardware commit versions its write set), read-locked words by
			// restoring their displaced metadata. Frees run only after the
			// release: a block being freed may contain held words, and free()
			// waits out word locks.
			if len(t.writes) > 0 {
				for i := range t.writes {
					h.words[t.writes[i].addr].Store(t.writes[i].val)
				}
				// Injected adversity (Config.Faults.ReleaseDelay): hold the
				// lock-set a while longer after write-back, stretching the
				// window in which contenders see the words fallback-locked.
				for i := 0; i < t.fbDelay; i++ {
					runtime.Gosched()
				}
				// Tick the clock with the whole lock-set held — same
				// lock-then-tick order as a hardware commit.
				t.fbRelease(h.tick())
			} else {
				t.fbRelease(0)
			}
		}
		t.runFrees()
		t.allocs = t.allocs[:0] // committed: the body keeps its allocations
		return 0, NilAddr
	}
	if len(t.writes) == 0 {
		// Read-only transactions hold a consistent snapshot as of rv at all
		// times thanks to incremental validation, so they commit for free —
		// as on real HTM, where an uncontended read-only transaction simply
		// commits.
		t.runFrees()
		return 0, NilAddr
	}
	// Global-fallback fence: commits may not overlap a global-lock fallback
	// section, which writes memory in place. The fence is the per-thread
	// inCommit barrier word, published BEFORE revalidating the fallback epoch
	// so this commit either observes the section (and aborts) or is observed
	// by its acquirer (and waited out); see adaptive.go. The fine-grained
	// fallback needs no fence — it holds the metadata locks of the words it
	// touches, so a conflicting commit simply fails its acquisition CAS below,
	// and a disjoint commit proceeds concurrently.
	inCommit := &t.th.cell.inCommit
	inCommit.Store(1)
	if h.fallbackSeq.Load() != t.fbSeq {
		inCommit.Store(0)
		return AbortFallback, NilAddr
	}

	// Acquire ownership of the write set: one CAS per word, from exactly the
	// metadata recorded when the store was buffered to that word locked. The
	// CAS doubles as full validation of the written word — a concurrent
	// commit, an NT write, a free, or a free-and-reallocation all rewrote the
	// metadata since then (versions only grow, so a recorded word can never
	// recur), and each fails the acquisition. In particular a blind write can
	// never land in a reused block's new life, and a freed word is never
	// locked (which is what lets the allocator transition free words with a
	// bare CAS instead of a lock handshake).
	for i := range t.writes {
		w := &t.writes[i]
		if !h.meta[w.addr].CompareAndSwap(w.meta, w.meta|metaLockBit) {
			if cur := h.meta[w.addr].Load(); !metaAllocated(cur) && !metaLocked(cur) {
				// The word was freed — and not yet reused — since our store.
				// (A freed-and-reused word aborts as a conflict below, which
				// is equally safe: nothing was locked or written.)
				t.commitFail(i)
				if h.cfg.NoSandbox {
					panic(fmt.Sprintf("htm: commit to freed word %#x without sandboxing", uint32(w.addr)))
				}
				return AbortIllegal, w.addr
			}
			t.commitFail(i)
			return AbortConflict, w.addr
		}
	}

	// Tick the version clock. The order is load-bearing: every write lock is
	// already held, so any transaction whose begin observes this tick and
	// then reads one of our words either sees it locked (waits/aborts) or
	// sees the fresh version — never the old value under a snapshot that
	// admits the new one.
	wv := h.tick()

	// Validate the read set. Words we hold locked for writing are validated
	// against their pre-lock (recorded) metadata.
	for i := range t.reads {
		r := &t.reads[i]
		o := h.meta[r.addr].Load()
		if o == r.meta {
			continue
		}
		if metaLocked(o) {
			if j := t.findWrite(r.addr); j >= 0 && t.writes[j].meta == r.meta {
				continue
			}
		}
		t.commitFail(len(t.writes))
		return AbortConflict, r.addr
	}

	for i := range t.writes {
		h.words[t.writes[i].addr].Store(t.writes[i].val)
	}
	for i := range t.writes {
		h.releaseMeta(t.writes[i].addr, wv)
	}
	inCommit.Store(0)
	t.runFrees()
	return 0, NilAddr
}

// commitFail backs a failed commit out: it unlocks the first acquired write
// entries, restoring their recorded metadata, and clears the inCommit barrier
// word.
func (t *Txn) commitFail(acquired int) {
	for i := 0; i < acquired; i++ {
		t.h.releaseMetaUnchanged(t.writes[i].addr, t.writes[i].meta)
	}
	t.th.cell.inCommit.Store(0)
}

func (t *Txn) runFrees() {
	for _, a := range t.frees {
		t.th.Free(a)
	}
}

// reset prepares the Txn for a fresh attempt.
func (t *Txn) reset() {
	t.reads = t.reads[:0]
	t.writes = t.writes[:0]
	t.frees = t.frees[:0]
	t.allocs = t.allocs[:0]
	t.locks = t.locks[:0]
	t.fbMax = 0
	t.direct = false
	t.directGlobal = false
	t.fbSeq = 0
	if t.dedup {
		// The filter carries bits only when the previous attempt engaged
		// dedup; bypass attempts never touch it, so read-only transactions
		// skip the 64-byte clear too.
		t.rfilter = [readFilterWords]uint64{}
		t.dedup = false
	}
	t.rindexed = false
}

// ReadSetSize and WriteSetSize report the current footprint of the attempt;
// useful for tests and for algorithms that adapt transaction size.
// ReadSetSize counts distinct words read: it compacts any bypass-mode
// duplicates first (engaging dedup for the rest of the attempt), so repeat
// reads are never counted.
func (t *Txn) ReadSetSize() int {
	t.engageDedup()
	return len(t.reads)
}

// WriteSetSize reports the number of distinct words buffered for writing.
func (t *Txn) WriteSetSize() int { return len(t.writes) }
