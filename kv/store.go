package kv

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/htm"
	"repro/kv/wal"
)

// Index slot markers. Slot words hold the payload address of the entry block;
// real payload addresses are always ≥ 2 (word 0 is reserved as NilAddr and
// every block has a one-word header before its payload), so 1 is free to mark
// tombstones — slots whose entry was deleted but which must keep linear
// probes running through them until compaction clears them.
const (
	slotEmpty     = 0
	slotTombstone = 1
)

// Directory block layout: mutable index-wide counters live in heap words so
// every operation reads and updates them transactionally — the entry count
// and the load-factor ceiling check linearize with the slot writes.
const (
	dirCount      = iota // live entries
	dirTombstones        // tombstoned slots awaiting compaction
	dirSeq               // durability sequence: ticked by every logged mutation
	dirWords
)

// Store is the transactional KV engine. It is safe for concurrent use; every
// operation runs as one heap transaction on a pooled htm.Thread.
type Store struct {
	cfg   Config
	heap  *htm.Heap
	pool  chan *htm.Thread
	table htm.Addr // index: cfg.Slots words, one per slot
	dir   htm.Addr // directory block: dirWords counters
	mask  uint64

	// Operation counters (monotonic, for /stats and tests).
	gets, puts, deletes, scans, expired, compacted atomic.Uint64

	// deadlines counts operations abandoned at their context deadline;
	// inflight is the number of pool contexts currently checked out — the
	// admission governor's saturation signal.
	deadlines atomic.Uint64
	inflight  atomic.Int64

	// Durability state (nil/zero for a purely in-memory store). wal is the
	// commit log every acknowledged mutation is framed into; dcfg the
	// defaulted Durability config; recovery what startup replay found.
	wal      *wal.Log
	dcfg     *Durability
	recovery *RecoveryInfo

	// sinceSnap counts acknowledged mutations since the last snapshot;
	// snapBusy single-flights automatic snapshots; snapWG lets Close wait
	// out an in-flight one. walFails counts mutations that committed in
	// memory but failed to reach the log (returned ErrDurability).
	sinceSnap atomic.Uint64
	snapBusy  atomic.Bool
	snapWG    sync.WaitGroup
	walFails  atomic.Uint64
	snaps     atomic.Uint64
	closed    atomic.Bool

	// tuner is the heap's contention controller (Config.Adaptive; nil when
	// the fallback mode stays at its seeded value). Owned by the store:
	// started at construction, stopped by Close.
	tuner *htm.Tuner
}

// NewStore builds a purely in-memory Store on a private heap per cfg. A
// config with Durability set must go through Open instead — recovery can
// fail, and NewStore has no error to return it through.
func NewStore(cfg Config) *Store {
	if cfg.Durability != nil {
		panic("kv: NewStore cannot attach durability; use kv.Open")
	}
	return newStoreCore(cfg)
}

// newStoreCore builds the heap-backed engine without any durability wiring.
func newStoreCore(cfg Config) *Store {
	cfg = cfg.withDefaults()
	h := htm.NewHeap(htm.Config{
		Words:           cfg.HeapWords,
		EnableTLE:       true,
		GlobalFallback:  cfg.GlobalFallback,
		AllowAllocInTxn: false, // entries are pre-allocated, Rock-style
		MaxRetries:      cfg.MaxRetries,
		Faults:          cfg.Faults,
	})
	s := &Store{
		cfg:  cfg,
		heap: h,
		pool: make(chan *htm.Thread, cfg.PoolThreads),
		mask: uint64(cfg.Slots - 1),
	}
	if ac := cfg.Adaptive; ac != nil {
		s.tuner = h.StartTuner(htm.TunerConfig{Pinned: ac.Pinned})
	}
	setup := h.NewThread()
	s.table = setup.Alloc(cfg.Slots)
	s.dir = setup.Alloc(dirWords)
	s.pool <- setup // the setup thread serves as the first pool context
	for i := 1; i < cfg.PoolThreads; i++ {
		s.pool <- h.NewThread()
	}
	return s
}

// Heap exposes the backing heap (stats endpoint, job pipeline, tests).
func (s *Store) Heap() *htm.Heap { return s.heap }

// Tuner exposes the store's contention controller, nil when Config.Adaptive
// is unset.
func (s *Store) Tuner() *htm.Tuner { return s.tuner }

// Slots returns the index capacity; Scan cursors range over [0, Slots()).
func (s *Store) Slots() uint64 { return uint64(s.cfg.Slots) }

// PoolSize returns the engine's concurrency ceiling (Config.PoolThreads).
func (s *Store) PoolSize() int { return s.cfg.PoolThreads }

// withThread runs f on a pooled execution context. The pool bounds engine
// concurrency at Config.PoolThreads; the deferred put-back keeps the context
// usable even when f panics (e.g. arena exhaustion surfacing through the
// HTTP recovery middleware).
func (s *Store) withThread(f func(th *htm.Thread)) {
	th := <-s.pool
	s.inflight.Add(1)
	defer func() {
		s.inflight.Add(-1)
		s.pool <- th
	}()
	f(th)
}

// withThreadCtx is withThread with a context gate: a request whose context is
// already done — or that expires while queued for a pool slot — is abandoned
// with ErrDeadline before it touches the engine. Internal paths (jobs,
// Len/Tombstones) keep using withThread; only the client-facing operations
// carry deadlines.
func (s *Store) withThreadCtx(ctx context.Context, f func(th *htm.Thread)) error {
	done := ctx.Done()
	if done == nil {
		s.withThread(f)
		return nil
	}
	// Check before the select: a free pool slot must not win the race against
	// an already-dead context.
	if ctx.Err() != nil {
		return s.deadlineErr(ctx)
	}
	var th *htm.Thread
	select {
	case th = <-s.pool:
	case <-done:
		return s.deadlineErr(ctx)
	}
	s.inflight.Add(1)
	defer func() {
		s.inflight.Add(-1)
		s.pool <- th
	}()
	f(th)
	return nil
}

// stopFor converts a context into an AtomicUntil abandon hook: nil for
// never-cancellable contexts so the common Background case adds nothing to
// the retry loop.
func stopFor(ctx context.Context) func() bool {
	if ctx.Done() == nil {
		return nil
	}
	return func() bool { return ctx.Err() != nil }
}

// deadlineErr records and materializes an ErrDeadline for an operation whose
// retry loop was abandoned mid-flight.
func (s *Store) deadlineErr(ctx context.Context) error {
	s.deadlines.Add(1)
	return fmt.Errorf("%w: %v", ErrDeadline, ctx.Err())
}

// InFlight returns the number of operations currently holding a pool context.
func (s *Store) InFlight() int { return int(s.inflight.Load()) }

// DeadlineHits returns the number of operations abandoned at their deadline.
func (s *Store) DeadlineHits() uint64 { return s.deadlines.Load() }

// loadKeyEq reports whether the entry block at e holds key (hash already
// matched). Runs inside the transaction: the key words it loads join the
// read set, so a concurrent replace of this entry aborts us rather than
// letting the comparison tear.
func loadKeyEq(t *htm.Txn, e htm.Addr, hash uint64, key []byte) bool {
	if t.Load(e+entryHash) != hash {
		return false
	}
	lens := t.Load(e + entryLens)
	if int(lens>>32) != len(key) {
		return false
	}
	kw := wordsFor(len(key))
	var buf [8]byte
	for i := 0; i < kw; i++ {
		w := t.Load(e + entryHdrWords + htm.Addr(i))
		n := len(key) - i*8
		if n > 8 {
			n = 8
		}
		b := unpackWord(buf[:0], w, n)
		for j := 0; j < n; j++ {
			if b[j] != key[i*8+j] {
				return false
			}
		}
	}
	return true
}

// probe walks the linear-probe cluster for hash/key inside txn t. It returns
// the slot index holding the key (found=true), or the first reusable slot
// (tombstone, else the terminating empty slot) with found=false. insert=-1
// means the cluster spans the whole table with no reusable slot.
func (s *Store) probe(t *htm.Txn, hash uint64, key []byte) (slot uint64, entry htm.Addr, found bool, insert int64) {
	insert = -1
	i := hash & s.mask
	for n := uint64(0); n <= s.mask; n++ {
		w := t.Load(s.table + htm.Addr(i))
		switch w {
		case slotEmpty:
			if insert < 0 {
				insert = int64(i)
			}
			return 0, 0, false, insert
		case slotTombstone:
			if insert < 0 {
				insert = int64(i)
			}
		default:
			e := htm.Addr(w)
			if loadKeyEq(t, e, hash, key) {
				return i, e, true, insert
			}
		}
		i = (i + 1) & s.mask
	}
	return 0, 0, false, insert
}

// expired reports whether an entry's expiry deadline (0 = never) has passed.
func expired(deadline uint64, now int64) bool {
	return deadline != 0 && int64(deadline) <= now
}

// Get returns a copy of the value stored under key. Expired entries read as
// missing (their storage is reclaimed by the background expiry job). The
// whole lookup — probe, key compare, value copy — is one transaction, so the
// returned value is an atomic snapshot of a committed Put. The context bounds
// the whole operation: pool-slot wait and transaction retries both abandon
// with ErrDeadline when it expires.
func (s *Store) Get(ctx context.Context, key []byte) (val []byte, ok bool, err error) {
	if err := s.validateKey(key); err != nil {
		return nil, false, err
	}
	hash := hashKey(key)
	now := s.cfg.Now()
	s.gets.Add(1)
	var opErr error
	err = s.withThreadCtx(ctx, func(th *htm.Thread) {
		committed := th.AtomicUntil(func(t *htm.Txn) {
			val, ok = val[:0], false // restartable body: reset on every attempt
			_, e, found, _ := s.probe(t, hash, key)
			if !found {
				return
			}
			if expired(t.Load(e+entryExpiry), now) {
				return
			}
			lens := t.Load(e + entryLens)
			vlen := int(lens & 0xffffffff)
			voff := htm.Addr(entryHdrWords + wordsFor(int(lens>>32)))
			for i := 0; i < wordsFor(vlen); i++ {
				n := vlen - i*8
				if n > 8 {
					n = 8
				}
				val = unpackWord(val, t.Load(e+voff+htm.Addr(i)), n)
			}
			ok = true
		}, stopFor(ctx))
		if !committed {
			opErr = s.deadlineErr(ctx)
		}
	})
	if err == nil {
		err = opErr
	}
	if err != nil || !ok {
		return nil, false, err
	}
	return val, true, nil
}

// Put stores val under key, replacing any existing value. ttl bounds the
// entry's lifetime (0 = no expiry). The entry block is allocated and filled
// outside the transaction — it is private until the slot write that
// publishes it commits, the same discipline as the paper's queue nodes — so
// the transaction itself writes at most three words (slot + two counters;
// five with durability, adding the sequence stamps) and fits any store
// buffer.
func (s *Store) Put(ctx context.Context, key, val []byte, ttl time.Duration) error {
	if err := s.validateKey(key); err != nil {
		return err
	}
	if len(val) > s.cfg.MaxValueBytes {
		return fmt.Errorf("%w (%d > %d bytes)", ErrValueTooLarge, len(val), s.cfg.MaxValueBytes)
	}
	hash := hashKey(key)
	var deadline uint64
	if ttl > 0 {
		deadline = uint64(s.cfg.Now() + int64(ttl))
	}
	s.puts.Add(1)
	durable := s.wal != nil
	var opErr error
	err := s.withThreadCtx(ctx, func(th *htm.Thread) {
		e := s.fillEntry(th, hash, key, val, deadline)
		published := false
		var seq uint64
		committed := th.AtomicUntil(func(t *htm.Txn) {
			opErr, published = nil, false
			slot, old, found, insert := s.probe(t, hash, key)
			if found {
				t.Store(s.table+htm.Addr(slot), uint64(e))
				t.FreeOnCommit(old)
				seq = s.tickSeq(t, e, durable)
				published = true
				return
			}
			if insert < 0 {
				opErr = ErrFull
				return
			}
			reusing := t.Load(s.table+htm.Addr(insert)) == slotTombstone
			count := t.Load(s.dir + dirCount)
			tombs := t.Load(s.dir + dirTombstones)
			if !reusing && count+tombs >= uint64(maxEntries(s.cfg.Slots)) {
				opErr = ErrFull
				return
			}
			t.Store(s.table+htm.Addr(insert), uint64(e))
			t.Store(s.dir+dirCount, count+1)
			if reusing {
				t.Store(s.dir+dirTombstones, tombs-1)
			}
			seq = s.tickSeq(t, e, durable)
			published = true
		}, stopFor(ctx))
		if !committed {
			// An aborted final attempt may have left published=true from its
			// sandboxed run; nothing actually landed.
			published = false
			opErr = s.deadlineErr(ctx)
		}
		if !published {
			th.Free(e) // rejected or abandoned: reclaim the staged entry
			return
		}
		if durable && opErr == nil {
			opErr = s.logMutation(func() error { return s.wal.AppendPut(seq, deadline, key, val) })
		}
	})
	if err != nil {
		return err
	}
	return opErr
}

// tickSeq assigns the next durability sequence number inside the publishing
// transaction, stamping it into the entry block at e (0 = no entry word to
// stamp, for deletes). Non-durable stores skip the tick: the extra shared
// word would make every pair of write transactions conflict for nothing.
func (s *Store) tickSeq(t *htm.Txn, e htm.Addr, durable bool) uint64 {
	if !durable {
		return 0
	}
	seq := t.Load(s.dir+dirSeq) + 1
	t.Store(s.dir+dirSeq, seq)
	if e != 0 {
		t.Store(e+entrySeq, seq)
	}
	return seq
}

// logMutation frames one acknowledged mutation into the commit log and
// blocks until it is durable, converting failures into ErrDurability. On
// success it advances the snapshot trigger.
func (s *Store) logMutation(appendRec func() error) error {
	if err := appendRec(); err != nil {
		s.walFails.Add(1)
		return fmt.Errorf("%w: %v", ErrDurability, err)
	}
	s.noteMutation()
	return nil
}

// fillEntry allocates and fills an entry block non-transactionally. The
// block is exclusively ours until published; NT stores are strongly atomic,
// so even a misbehaving concurrent reader would abort rather than tear.
func (s *Store) fillEntry(th *htm.Thread, hash uint64, key, val []byte, deadline uint64) htm.Addr {
	kw, vw := wordsFor(len(key)), wordsFor(len(val))
	e := th.Alloc(entryWords(len(key), len(val)))
	h := th.Heap()
	h.StoreNT(e+entryHash, hash)
	h.StoreNT(e+entryLens, uint64(len(key))<<32|uint64(len(val)))
	h.StoreNT(e+entryExpiry, deadline)
	words := make([]uint64, kw+vw)
	packWords(key, words[:kw])
	packWords(val, words[kw:])
	for i, w := range words {
		h.StoreNT(e+entryHdrWords+htm.Addr(i), w)
	}
	return e
}

// Delete removes key, returning whether it was present (and unexpired). The
// slot becomes a tombstone — probes must keep running through it — and the
// entry block is freed the instant the transaction commits; the background
// compaction job later reclaims the slot itself.
func (s *Store) Delete(ctx context.Context, key []byte) (bool, error) {
	if err := s.validateKey(key); err != nil {
		return false, err
	}
	hash := hashKey(key)
	now := s.cfg.Now()
	s.deletes.Add(1)
	durable := s.wal != nil
	var existed bool
	var opErr error
	err := s.withThreadCtx(ctx, func(th *htm.Thread) {
		mutated := false
		var seq uint64
		committed := th.AtomicUntil(func(t *htm.Txn) {
			existed, mutated = false, false
			slot, e, found, _ := s.probe(t, hash, key)
			if !found {
				return
			}
			existed = !expired(t.Load(e+entryExpiry), now)
			t.Store(s.table+htm.Addr(slot), slotTombstone)
			t.Store(s.dir+dirCount, t.Load(s.dir+dirCount)-1)
			t.Store(s.dir+dirTombstones, t.Load(s.dir+dirTombstones)+1)
			t.FreeOnCommit(e)
			seq = s.tickSeq(t, 0, durable)
			mutated = true
		}, stopFor(ctx))
		if !committed {
			opErr = s.deadlineErr(ctx)
			return
		}
		// The record is logged whenever the index changed — even for an
		// expired entry (existed=false): the tombstone is a state change a
		// crash must not resurrect.
		if durable && mutated {
			opErr = s.logMutation(func() error { return s.wal.AppendDelete(seq, key) })
		}
	})
	if err == nil {
		err = opErr
	}
	if err != nil {
		return false, err
	}
	return existed, nil
}

// Pair is one key/value returned by Scan.
type Pair struct {
	Key   []byte `json:"key"`
	Value []byte `json:"value"`
}

// scanSlotWindow bounds how many index slots one Scan transaction examines,
// keeping its read set well inside the heap's capacity; callers page through
// the table with the returned cursor.
const scanSlotWindow = 2048

// Scan returns up to limit live entries starting at slot index cursor, with
// the cursor to resume from. The scan is complete when next == Slots(). Each
// call is ONE transaction: the returned page is an atomic snapshot of the
// slots it covered (entries may move under concurrent writes between pages —
// the usual cursor-scan contract).
func (s *Store) Scan(ctx context.Context, cursor uint64, limit int) (pairs []Pair, next uint64, err error) {
	if limit <= 0 {
		limit = 64
	}
	nslots := uint64(s.cfg.Slots)
	if cursor >= nslots {
		return nil, nslots, nil
	}
	end := cursor + scanSlotWindow
	if end > nslots {
		end = nslots
	}
	now := s.cfg.Now()
	s.scans.Add(1)
	var opErr error
	err = s.withThreadCtx(ctx, func(th *htm.Thread) {
		committed := th.AtomicUntil(func(t *htm.Txn) {
			pairs, next = pairs[:0], end // restartable body
			for i := cursor; i < end; i++ {
				if len(pairs) >= limit {
					next = i
					return
				}
				w := t.Load(s.table + htm.Addr(i))
				if w == slotEmpty || w == slotTombstone {
					continue
				}
				e := htm.Addr(w)
				if expired(t.Load(e+entryExpiry), now) {
					continue
				}
				lens := t.Load(e + entryLens)
				klen, vlen := int(lens>>32), int(lens&0xffffffff)
				p := Pair{Key: make([]byte, 0, klen), Value: make([]byte, 0, vlen)}
				for j := 0; j < wordsFor(klen); j++ {
					n := klen - j*8
					if n > 8 {
						n = 8
					}
					p.Key = unpackWord(p.Key, t.Load(e+entryHdrWords+htm.Addr(j)), n)
				}
				voff := htm.Addr(entryHdrWords + wordsFor(klen))
				for j := 0; j < wordsFor(vlen); j++ {
					n := vlen - j*8
					if n > 8 {
						n = 8
					}
					p.Value = unpackWord(p.Value, t.Load(e+voff+htm.Addr(j)), n)
				}
				pairs = append(pairs, p)
			}
		}, stopFor(ctx))
		if !committed {
			opErr = s.deadlineErr(ctx)
		}
	})
	if err == nil {
		err = opErr
	}
	if err != nil {
		return nil, 0, err
	}
	return pairs, next, nil
}

// Len returns the number of live entries (including not-yet-expired-swept
// TTL'd entries).
func (s *Store) Len() int {
	var n uint64
	s.withThread(func(th *htm.Thread) {
		th.Atomic(func(t *htm.Txn) {
			n = t.Load(s.dir + dirCount)
		})
	})
	return int(n)
}

// Tombstones returns the number of slots awaiting compaction (diagnostics).
func (s *Store) Tombstones() int {
	var n uint64
	s.withThread(func(th *htm.Thread) {
		th.Atomic(func(t *htm.Txn) {
			n = t.Load(s.dir + dirTombstones)
		})
	})
	return int(n)
}

// ExpireRange sweeps slots [lo, hi), tombstoning entries whose deadline has
// passed and freeing their blocks. One small transaction per expired entry
// keeps the sweep's conflict footprint to the single slot it rewrites, so a
// background sweep never stalls foreground traffic. Returns entries expired.
func (s *Store) ExpireRange(lo, hi uint64) int {
	nslots := uint64(s.cfg.Slots)
	if hi > nslots {
		hi = nslots
	}
	now := s.cfg.Now()
	n := 0
	s.withThread(func(th *htm.Thread) {
		for i := lo; i < hi; i++ {
			removed := false
			th.Atomic(func(t *htm.Txn) {
				removed = false
				w := t.Load(s.table + htm.Addr(i))
				if w == slotEmpty || w == slotTombstone {
					return
				}
				e := htm.Addr(w)
				if !expired(t.Load(e+entryExpiry), now) {
					return
				}
				t.Store(s.table+htm.Addr(i), slotTombstone)
				t.Store(s.dir+dirCount, t.Load(s.dir+dirCount)-1)
				t.Store(s.dir+dirTombstones, t.Load(s.dir+dirTombstones)+1)
				t.FreeOnCommit(e)
				removed = true
			})
			if removed {
				n++
			}
		}
	})
	s.expired.Add(uint64(n))
	return n
}

// CompactRange clears tombstones in [lo, hi) that no probe sequence needs:
// a tombstone immediately followed (mod table size) by an empty slot
// terminates its cluster, so probes that would pass through it stop one slot
// earlier — it can become empty. Sweeping high-to-low lets clearings cascade
// down a tombstone run in a single pass. Each fix is one two-slot
// transaction. Returns tombstones cleared.
//
// This reclaims cluster tails only; interior tombstones are retained (they
// are still reusable by Put) — the trade for never relocating a live entry,
// which keeps every committed entry address stable for the lifetime of the
// entry, the invariant Get/Scan's entry reads rely on.
func (s *Store) CompactRange(lo, hi uint64) int {
	nslots := uint64(s.cfg.Slots)
	if hi > nslots {
		hi = nslots
	}
	n := 0
	s.withThread(func(th *htm.Thread) {
		for i := hi; i > lo; i-- {
			slot := i - 1
			cleared := false
			th.Atomic(func(t *htm.Txn) {
				cleared = false
				if t.Load(s.table+htm.Addr(slot)) != slotTombstone {
					return
				}
				nextSlot := (slot + 1) & s.mask
				if t.Load(s.table+htm.Addr(nextSlot)) != slotEmpty {
					return
				}
				t.Store(s.table+htm.Addr(slot), slotEmpty)
				t.Store(s.dir+dirTombstones, t.Load(s.dir+dirTombstones)-1)
				cleared = true
			})
			if cleared {
				n++
			}
		}
	})
	s.compacted.Add(uint64(n))
	return n
}

// Counters is a snapshot of the store's operation counters.
type Counters struct {
	Gets, Puts, Deletes, Scans uint64
	Expired, Compacted         uint64
	Deadlines                  uint64
}

// OpCounters returns a snapshot of cumulative operation counts.
func (s *Store) OpCounters() Counters {
	return Counters{
		Gets:      s.gets.Load(),
		Puts:      s.puts.Load(),
		Deletes:   s.deletes.Load(),
		Scans:     s.scans.Load(),
		Expired:   s.expired.Load(),
		Compacted: s.compacted.Load(),
		Deadlines: s.deadlines.Load(),
	}
}
