package htm

import (
	"sync"
	"testing"
)

// bothFallbackModes runs f once with the default fine-grained fallback and
// once on a heap seeded with the global lock (GlobalFallback), so both
// implementations keep satisfying the same TLE contract.
func bothFallbackModes(t *testing.T, f func(t *testing.T, global bool)) {
	t.Run("fine-grained", func(t *testing.T) { f(t, false) })
	t.Run("global", func(t *testing.T) { f(t, true) })
}

func TestTLEFallbackOnOverflow(t *testing.T) {
	bothFallbackModes(t, func(t *testing.T, global bool) {
		// With TLE enabled, a transaction that deterministically overflows the
		// store buffer completes on the fallback path instead of panicking.
		h := newTestHeap(t, Config{StoreBufferSize: 2, EnableTLE: true, MaxRetries: 3, GlobalFallback: global})
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
		if global && s.FallbackLocks != 0 {
			t.Errorf("global fallback acquired %d per-word locks", s.FallbackLocks)
		}
		if !global && s.FallbackLocks == 0 {
			t.Error("fine-grained fallback acquired no per-word locks")
		}
	})
}

func TestTLEMutualExclusionWithTransactions(t *testing.T) {
	bothFallbackModes(t, func(t *testing.T, global bool) {
		// A fallback operation that writes a multi-word invariant must be
		// atomic with respect to concurrently committing transactions.
		h := newTestHeap(t, Config{StoreBufferSize: 2, EnableTLE: true, MaxRetries: 2, GlobalFallback: global})
		setup := h.NewThread()
		a := setup.Alloc(4)
		const iters = 300
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := h.NewThread()
				for i := 0; i < iters; i++ {
					// Four stores overflow the 2-entry buffer, forcing TLE.
					th.Atomic(func(tx *Txn) {
						v := tx.Load(a) + 1
						tx.Store(a, v)
						tx.Store(a+1, v)
						tx.Store(a+2, v)
						tx.Store(a+3, v)
					})
				}
			}()
		}
		readerFail := make(chan string, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := h.NewThread()
			for i := 0; i < iters; i++ {
				var vals [4]uint64
				th.Atomic(func(tx *Txn) {
					for j := Addr(0); j < 4; j++ {
						vals[j] = tx.Load(a + j)
					}
				})
				for j := 1; j < 4; j++ {
					if vals[j] != vals[0] {
						select {
						case readerFail <- "torn fallback section observed":
						default:
						}
						return
					}
				}
			}
		}()
		wg.Wait()
		select {
		case msg := <-readerFail:
			t.Fatal(msg)
		default:
		}
		if v := h.LoadNT(a); v != 2*iters {
			t.Errorf("counter = %d, want %d", v, 2*iters)
		}
	})
}

func TestTLECounterExactness(t *testing.T) {
	bothFallbackModes(t, func(t *testing.T, global bool) {
		// Mixed population: some increments run transactionally, some on the
		// fallback path; the total must still be exact.
		h := newTestHeap(t, Config{StoreBufferSize: 1, EnableTLE: true, MaxRetries: 1, GlobalFallback: global})
		setup := h.NewThread()
		a := setup.Alloc(2)
		const n, m = 4, 200
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				th := h.NewThread()
				for j := 0; j < m; j++ {
					if k%2 == 0 {
						th.Atomic(func(tx *Txn) { tx.Add(a, 1) }) // fits store buffer
					} else {
						th.Atomic(func(tx *Txn) { // overflows: fallback
							tx.Add(a, 1)
							tx.Add(a+1, 1)
						})
					}
				}
			}(i)
		}
		wg.Wait()
		if v := h.LoadNT(a); v != n*m {
			t.Errorf("counter = %d, want %d", v, n*m)
		}
	})
}

func TestFallbackRunsFrees(t *testing.T) {
	bothFallbackModes(t, func(t *testing.T, global bool) {
		h := newTestHeap(t, Config{StoreBufferSize: 1, EnableTLE: true, MaxRetries: 1, GlobalFallback: global})
		th := h.NewThread()
		a := th.Alloc(4)
		b := th.Alloc(1)
		th.Atomic(func(tx *Txn) {
			tx.Store(a, 1)
			tx.Store(a+1, 1) // overflow -> fallback
			tx.FreeOnCommit(b)
		})
		if h.allocated(b) {
			t.Error("fallback did not run deferred frees")
		}
	})
}

// TestFallbackReadOnlyRestoresMetadata: a fine-grained fallback that only
// reads must leave every touched word's metadata bit-for-bit as it found it —
// no version tick, no spurious invalidation of concurrent readers.
func TestFallbackReadOnlyRestoresMetadata(t *testing.T) {
	h := newTestHeap(t, Config{StoreBufferSize: 1, EnableTLE: true, MaxRetries: 1})
	th := h.NewThread()
	a := th.Alloc(4)
	for i := Addr(0); i < 4; i++ {
		h.StoreNT(a+i, uint64(i))
	}
	// The overflow that forces the fallback happens on scratch words; a..a+3
	// are only read, so their metadata must come back untouched.
	scratch := th.Alloc(2)
	var before [4]uint64
	for i := range before {
		before[i] = h.meta[a+Addr(i)].Load()
	}
	clock := h.ClockNow()
	var sum uint64
	th.Atomic(func(tx *Txn) {
		tx.Store(scratch, 1)
		tx.Store(scratch+1, 1) // overflow -> fallback
		sum = 0
		for i := Addr(0); i < 4; i++ {
			sum += tx.Load(a + i)
		}
	})
	if sum != 0+1+2+3 {
		t.Errorf("fallback read sum = %d, want 6", sum)
	}
	for i := range before {
		if got := h.meta[a+Addr(i)].Load(); got != before[i] {
			t.Errorf("word %d metadata %#x, want restored %#x", i, got, before[i])
		}
	}
	// The write-back of scratch ticks the clock exactly once.
	if got := h.ClockNow(); got != clock+1 {
		t.Errorf("clock advanced by %d, want 1 (single tick per fallback commit)", got-clock)
	}
}
