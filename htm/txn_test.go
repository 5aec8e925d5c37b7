package htm

import (
	"errors"
	"sync"
	"testing"
)

func TestAtomicBasicReadWrite(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	a := th.Alloc(2)
	th.Atomic(func(tx *Txn) {
		tx.Store(a, 7)
		tx.Store(a+1, 8)
	})
	var x, y uint64
	th.Atomic(func(tx *Txn) {
		x = tx.Load(a)
		y = tx.Load(a + 1)
	})
	if x != 7 || y != 8 {
		t.Errorf("got (%d,%d), want (7,8)", x, y)
	}
}

func TestTxnReadYourWrites(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	a := th.Alloc(1)
	th.Atomic(func(tx *Txn) {
		tx.Store(a, 3)
		if v := tx.Load(a); v != 3 {
			t.Errorf("read-your-write = %d, want 3", v)
		}
		tx.Store(a, 4)
		if v := tx.Load(a); v != 4 {
			t.Errorf("read-your-write after overwrite = %d, want 4", v)
		}
	})
	if v := h.LoadNT(a); v != 4 {
		t.Errorf("committed = %d, want 4", v)
	}
}

func TestTxnAdd(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	a := th.Alloc(1)
	th.Atomic(func(tx *Txn) {
		if v := tx.Add(a, 5); v != 5 {
			t.Errorf("Add = %d, want 5", v)
		}
		if v := tx.Add(a, 2); v != 7 {
			t.Errorf("Add = %d, want 7", v)
		}
	})
	if v := h.LoadNT(a); v != 7 {
		t.Errorf("committed = %d, want 7", v)
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	a := th.Alloc(1)
	h.StoreNT(a, 1)
	err := th.TryAtomic(func(tx *Txn) {
		tx.Store(a, 99)
		tx.Abort()
	})
	var ab *AbortError
	if !errors.As(err, &ab) || ab.Code != AbortExplicit {
		t.Fatalf("err = %v, want explicit abort", err)
	}
	if v := h.LoadNT(a); v != 1 {
		t.Errorf("aborted write leaked: %d", v)
	}
}

func TestStoreBufferOverflow(t *testing.T) {
	h := newTestHeap(t, Config{StoreBufferSize: 4})
	th := h.NewThread()
	a := th.Alloc(8)
	err := th.TryAtomic(func(tx *Txn) {
		for i := Addr(0); i < 5; i++ {
			tx.Store(a+i, 1)
		}
	})
	var ab *AbortError
	if !errors.As(err, &ab) || ab.Code != AbortOverflow {
		t.Fatalf("err = %v, want overflow", err)
	}
	// Writing the same word repeatedly occupies one store-buffer entry.
	err = th.TryAtomic(func(tx *Txn) {
		for i := 0; i < 100; i++ {
			tx.Store(a, uint64(i))
		}
		tx.Store(a+1, 1)
		tx.Store(a+2, 1)
		tx.Store(a+3, 1)
	})
	if err != nil {
		t.Errorf("same-word stores should not overflow: %v", err)
	}
}

func TestUnboundedStoreBuffer(t *testing.T) {
	h := newTestHeap(t, Config{StoreBufferSize: -1})
	th := h.NewThread()
	a := th.Alloc(256)
	err := th.TryAtomic(func(tx *Txn) {
		for i := Addr(0); i < 256; i++ {
			tx.Store(a+i, uint64(i))
		}
	})
	if err != nil {
		t.Fatalf("unbounded store buffer aborted: %v", err)
	}
	if v := h.LoadNT(a + 255); v != 255 {
		t.Errorf("word 255 = %d", v)
	}
}

func TestReadSetCapacity(t *testing.T) {
	h := newTestHeap(t, Config{MaxReadSet: 4})
	th := h.NewThread()
	a := th.Alloc(8)
	err := th.TryAtomic(func(tx *Txn) {
		for i := Addr(0); i < 8; i++ {
			tx.Load(a + i)
		}
	})
	var ab *AbortError
	if !errors.As(err, &ab) || ab.Code != AbortCapacity {
		t.Fatalf("err = %v, want read-capacity abort", err)
	}
}

func TestSandboxFreedLoadAborts(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	a := th.Alloc(1)
	th.Free(a)
	err := th.TryAtomic(func(tx *Txn) { tx.Load(a) })
	var ab *AbortError
	if !errors.As(err, &ab) || ab.Code != AbortIllegal {
		t.Fatalf("err = %v, want illegal-access abort", err)
	}
	err = th.TryAtomic(func(tx *Txn) { tx.Store(a, 1) })
	if !errors.As(err, &ab) || ab.Code != AbortIllegal {
		t.Fatalf("store err = %v, want illegal-access abort", err)
	}
}

func TestSandboxNilLoadAborts(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	err := th.TryAtomic(func(tx *Txn) { tx.Load(NilAddr) })
	var ab *AbortError
	if !errors.As(err, &ab) || ab.Code != AbortIllegal {
		t.Fatalf("err = %v, want illegal-access abort", err)
	}
}

func TestNoSandboxFreedLoadPanics(t *testing.T) {
	h := newTestHeap(t, Config{NoSandbox: true})
	th := h.NewThread()
	a := th.Alloc(1)
	th.Free(a)
	defer func() {
		if recover() == nil {
			t.Error("unsandboxed freed load did not panic")
		}
	}()
	_ = th.TryAtomic(func(tx *Txn) { tx.Load(a) })
}

func TestFreeOnCommit(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	a := th.Alloc(1)
	th.Atomic(func(tx *Txn) {
		tx.Store(a, 1)
		tx.FreeOnCommit(a)
	})
	if h.allocated(a) {
		t.Error("block not freed after commit")
	}
}

func TestFreeOnCommitNotRunOnAbort(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	a := th.Alloc(1)
	_ = th.TryAtomic(func(tx *Txn) {
		tx.FreeOnCommit(a)
		tx.Abort()
	})
	if !h.allocated(a) {
		t.Error("aborted transaction freed memory")
	}
	if v := h.LoadNT(a); v != 0 {
		t.Errorf("block damaged: %d", v)
	}
}

func TestAllocInTxnForbiddenByDefault(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	defer func() {
		if recover() == nil {
			t.Error("Txn.Alloc without AllowAllocInTxn did not panic")
		}
	}()
	_ = th.TryAtomic(func(tx *Txn) { tx.Alloc(1) })
}

func TestAllocInTxnRollsBackOnAbort(t *testing.T) {
	h := newTestHeap(t, Config{AllowAllocInTxn: true})
	th := h.NewThread()
	live := h.Stats().LiveWords
	_ = th.TryAtomic(func(tx *Txn) {
		tx.Alloc(16)
		tx.Abort()
	})
	if got := h.Stats().LiveWords; got != live {
		t.Errorf("LiveWords = %d after aborted alloc, want %d", got, live)
	}
	var kept Addr
	th.Atomic(func(tx *Txn) {
		kept = tx.Alloc(16)
		tx.Store(kept, 9)
	})
	if !h.allocated(kept) {
		t.Error("committed alloc was rolled back")
	}
	if v := h.LoadNT(kept); v != 9 {
		t.Errorf("committed alloc word = %d", v)
	}
}

func TestNestedAtomicPanics(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	defer func() {
		if recover() == nil {
			t.Error("nested Atomic did not panic")
		}
	}()
	th.Atomic(func(tx *Txn) {
		th.Atomic(func(tx2 *Txn) {})
	})
}

func TestUserPanicPropagates(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	defer func() {
		r := recover()
		if r != "user-panic" {
			t.Errorf("recovered %v, want user-panic", r)
		}
		// The thread must be reusable after a propagated panic... it is not
		// required to be, but inTxn must not deadlock future use.
	}()
	th.Atomic(func(tx *Txn) { panic("user-panic") })
}

func TestOverflowWithoutTLEPanicsInAtomic(t *testing.T) {
	h := newTestHeap(t, Config{StoreBufferSize: 2})
	th := h.NewThread()
	a := th.Alloc(4)
	defer func() {
		if recover() == nil {
			t.Error("deterministic overflow in Atomic did not panic")
		}
	}()
	th.Atomic(func(tx *Txn) {
		tx.Store(a, 1)
		tx.Store(a+1, 1)
		tx.Store(a+2, 1)
	})
}

func TestReadWriteSetSizes(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	a := th.Alloc(4)
	th.Atomic(func(tx *Txn) {
		tx.Load(a)
		tx.Load(a + 1)
		tx.Store(a+2, 1)
		if tx.ReadSetSize() != 2 {
			t.Errorf("ReadSetSize = %d, want 2", tx.ReadSetSize())
		}
		if tx.WriteSetSize() != 1 {
			t.Errorf("WriteSetSize = %d, want 1", tx.WriteSetSize())
		}
	})
}

func TestConflictingCountersAreExact(t *testing.T) {
	// N threads atomically increment a shared counter M times each; the
	// result must be exactly N*M regardless of aborts and retries.
	h := newTestHeap(t, Config{})
	setup := h.NewThread()
	a := setup.Alloc(1)
	const n, m = 8, 500
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := h.NewThread()
			for j := 0; j < m; j++ {
				th.Atomic(func(tx *Txn) { tx.Add(a, 1) })
			}
		}()
	}
	wg.Wait()
	if v := h.LoadNT(a); v != n*m {
		t.Errorf("counter = %d, want %d", v, n*m)
	}
}

func TestIsolationNoDirtyReads(t *testing.T) {
	// One thread repeatedly writes (x, x) pairs in a transaction; readers
	// must never observe mixed pairs.
	h := newTestHeap(t, Config{})
	setup := h.NewThread()
	a := setup.Alloc(2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := h.NewThread()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			th.Atomic(func(tx *Txn) {
				tx.Store(a, i)
				tx.Store(a+1, i)
			})
		}
	}()
	reader := h.NewThread()
	for i := 0; i < 5000; i++ {
		var x, y uint64
		reader.Atomic(func(tx *Txn) {
			x = tx.Load(a)
			y = tx.Load(a + 1)
		})
		if x != y {
			t.Fatalf("dirty read: (%d, %d)", x, y)
		}
	}
	close(stop)
	wg.Wait()
}

func TestSnapshotConsistencyWithNTWriter(t *testing.T) {
	// Strong atomicity: a non-transactional writer updating two words with
	// two separate StoreNT calls is two atomic writes; a transaction reading
	// both must see x <= y if the writer always writes y after x with
	// y >= x... here we write the same monotonically increasing value to
	// both in order, so a transactional snapshot must observe y ∈ {x, x-1}
	// style consistency: never y > x is violated, and never torn words.
	h := newTestHeap(t, Config{})
	setup := h.NewThread()
	a := setup.Alloc(2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			h.StoreNT(a, i)
			h.StoreNT(a+1, i)
		}
	}()
	reader := h.NewThread()
	for i := 0; i < 5000; i++ {
		var x, y uint64
		reader.Atomic(func(tx *Txn) {
			x = tx.Load(a)
			y = tx.Load(a + 1)
		})
		if y > x {
			t.Fatalf("snapshot saw second store (%d) without first (%d)", y, x)
		}
	}
	close(stop)
	wg.Wait()
}

// oneClock names the subtest of the clock tests that run on the heap's
// single version clock (the one-shard case of the clock's old shard knob).
const oneClock = "shards=1"

// TestClockMonotonic pins the tick discipline: every committing write
// transaction ticks the version clock exactly once.
func TestClockMonotonic(t *testing.T) {
	t.Run(oneClock, func(t *testing.T) {
		h := newTestHeap(t, Config{})
		th := h.NewThread()
		a := th.Alloc(1)
		prev := h.ClockNow()
		for i := 0; i < 100; i++ {
			th.Atomic(func(tx *Txn) { tx.Store(a, uint64(i)) })
			now := h.ClockNow()
			if now != prev+1 {
				t.Fatalf("clock ticked %d times for one commit", now-prev)
			}
			prev = now
		}
	})
}

func TestReadOnlyTxnDoesNotAdvanceClock(t *testing.T) {
	t.Run(oneClock, func(t *testing.T) {
		h := newTestHeap(t, Config{})
		th := h.NewThread()
		a := th.Alloc(1)
		before := h.ClockNow()
		th.Atomic(func(tx *Txn) { tx.Load(a) })
		if after := h.ClockNow(); after != before {
			t.Errorf("read-only txn advanced clock %d -> %d", before, after)
		}
	})
}

// The deterministic tests below drive a second thread's commit from inside
// the first thread's transaction body — each Thread is used by one goroutine
// at a time, so this is legal — which pins the exact interleaving the
// engine must survive.

// TestExtendSucceeds: a reader observes a version that postdates its begin
// snapshot. The read must force an extension, the extension must succeed
// (nothing the reader previously read changed), and the reader must see the
// writer's committed value.
func TestExtendSucceeds(t *testing.T) {
	h := newTestHeap(t, Config{})
	reader, writer := h.NewThread(), h.NewThread()
	x, y := reader.Alloc(1), reader.Alloc(1)
	wrote := false
	var got uint64
	reader.Atomic(func(tx *Txn) {
		tx.Load(x)
		if !wrote {
			wrote = true
			writer.Atomic(func(wx *Txn) { wx.Store(y, 42) })
		}
		got = tx.Load(y)
	})
	if got != 42 {
		t.Errorf("reader saw %d after extension, want 42", got)
	}
}

// TestExtendAborts: same shape, but the writer also rewrites a word the
// reader already read — the forced extension must fail revalidation and
// abort the attempt with AbortConflict rather than let the reader pair pre-
// and post-commit state.
func TestExtendAborts(t *testing.T) {
	h := newTestHeap(t, Config{})
	reader, writer := h.NewThread(), h.NewThread()
	x, y := reader.Alloc(1), reader.Alloc(1)
	err := reader.TryAtomic(func(tx *Txn) {
		tx.Load(x)
		writer.Atomic(func(wx *Txn) {
			wx.Store(x, 7) // invalidates the reader's snapshot
			wx.Store(y, 7)
		})
		tx.Load(y) // version above rv -> extend -> must fail
		t.Error("reader survived a torn snapshot")
	})
	if code := abortCodeOf(t, err); code != AbortConflict {
		t.Errorf("abort code = %v, want AbortConflict", code)
	}
}

func abortCodeOf(t *testing.T, err error) AbortCode {
	t.Helper()
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("expected *AbortError, got %v", err)
	}
	return ae.Code
}

// TestStripeAliasingConflict pins the per-word metadata property for a
// reader: a commit to a DIFFERENT word of the reader's block, or to another
// block, does not conflict with the reader's snapshot, while a commit to a
// word the reader already read does.
func TestStripeAliasingConflict(t *testing.T) {
	h := newTestHeap(t, Config{})
	reader, mut := h.NewThread(), h.NewThread()
	blk := reader.Alloc(3)
	other := reader.Alloc(3)
	run := func(target Addr) error {
		return reader.TryAtomic(func(tx *Txn) {
			tx.Load(blk)
			mut.Atomic(func(mx *Txn) { mx.Store(target, 9) })
			tx.Load(target) // newer than rv: forces an extension
		})
	}
	if err := run(blk + 2); err != nil {
		t.Errorf("write to a neighbor word conflicted: %v", err)
	}
	if err := run(other); err != nil {
		t.Errorf("write to another block conflicted: %v", err)
	}
	if code := abortCodeOf(t, run(blk)); code != AbortConflict {
		t.Errorf("write to a word already read: abort code = %v, want AbortConflict", code)
	}
}

// TestStripeWriteWriteAliasing: the commit-time acquisition CAS operates on
// per-word metadata, so a concurrent commit to a DIFFERENT word of the same
// block leaves this transaction's acquisition alone, while a concurrent
// commit to the same word fails it.
func TestStripeWriteWriteAliasing(t *testing.T) {
	t.Run("shift=0", func(t *testing.T) {
		h := newTestHeap(t, Config{})
		a, b := h.NewThread(), h.NewThread()
		blk := a.Alloc(3)
		run := func(target Addr) error {
			return a.TryAtomic(func(tx *Txn) {
				tx.Store(blk, 1)
				b.Atomic(func(bx *Txn) { bx.Store(target, 2) })
			})
		}
		if err := run(blk + 2); err != nil {
			t.Errorf("commit to distinct words aborted: %v", err)
		}
		if code := abortCodeOf(t, run(blk)); code != AbortConflict {
			t.Errorf("write-write on one word: abort code = %v, want AbortConflict", code)
		}
	})
}

// TestSelfOverlapCommit: one transaction reading and writing the same words
// must not conflict with itself — read validation recognizes the
// transaction's own write locks, and release publishes one fresh version.
func TestSelfOverlapCommit(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	blk := th.Alloc(3)
	before := h.ClockNow()
	th.Atomic(func(tx *Txn) {
		tx.Store(blk, 1)
		tx.Store(blk+1, 2)
		tx.Store(blk+2, tx.Load(blk)+tx.Load(blk+1)+tx.Load(blk+2))
	})
	if got := h.LoadNT(blk + 2); got != 3 {
		t.Errorf("self-overlapping commit wrote %d, want 3", got)
	}
	if st := h.Stats(); st.Commits != 1 || st.TotalAborts() != 0 {
		t.Errorf("commits=%d aborts=%d, want 1 and 0", st.Commits, st.TotalAborts())
	}
	if got := h.ClockNow(); got != before+1 {
		t.Errorf("commit ticked the clock %d times, want 1", got-before)
	}
}

func TestThreadAttemptStats(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	a := th.Alloc(1)
	for i := 0; i < 10; i++ {
		th.Atomic(func(tx *Txn) { tx.Store(a, 1) })
	}
	attempts, commits := th.AttemptStats()
	if commits != 10 {
		t.Errorf("commits = %d, want 10", commits)
	}
	if attempts < commits {
		t.Errorf("attempts = %d < commits = %d", attempts, commits)
	}
}
