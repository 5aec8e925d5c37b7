package htm

import (
	"testing"
)

// Substrate microbenchmarks. Every figure in the paper is throughput of
// operations built from these primitives, so their per-op cost and alloc
// behaviour bound everything the harness can measure. BENCH_*.json snapshots
// record their trajectory PR over PR.

// BenchmarkTxnLoadStore measures the transactional load/store fast path on a
// small working set, including read-own-writes and repeated reads of the same
// address — the access pattern of the paper's Collect loops.
func BenchmarkTxnLoadStore(b *testing.B) {
	b.Run("words=8", func(b *testing.B) {
		benchTxnLoadStore(b, Config{Words: 1 << 16}, 8)
	})
	// 64 distinct words exceeds the small-set linear fast path and exercises
	// the indexed read/write set (unbounded store buffer: a "future HTM").
	b.Run("words=64", func(b *testing.B) {
		benchTxnLoadStore(b, Config{Words: 1 << 16, StoreBufferSize: -1}, 64)
	})
}

func benchTxnLoadStore(b *testing.B, cfg Config, words int) {
	h := NewHeap(cfg)
	th := h.NewThread()
	a := th.Alloc(words)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Atomic(func(t *Txn) {
			for w := 0; w < words; w++ {
				addr := a + Addr(w)
				v := t.Load(addr)  // first read: enters the read set
				t.Store(addr, v+1) // write: enters the write set
				_ = t.Load(addr)   // read-own-write: must hit the write set
				_ = t.Load(a)      // repeated read: must not grow the read set
			}
		})
	}
}

// BenchmarkTxnReadOnly measures a pure read transaction over a scan-shaped
// working set (no writes, so commit is free and validation cost dominates).
func BenchmarkTxnReadOnly(b *testing.B) {
	h := NewHeap(Config{Words: 1 << 16})
	th := h.NewThread()
	const words = 32
	a := th.Alloc(words)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Atomic(func(t *Txn) {
			var s uint64
			for w := 0; w < words; w++ {
				s += t.Load(a + Addr(w))
			}
			_ = s
		})
	}
}

// BenchmarkTxnRepeatedLoad measures the read-set dedup path: a small set of
// words each loaded many times in one transaction — the pattern that, before
// dedup, grew the read set unboundedly, inflated validation, and could abort
// with AbortCapacity despite a tiny distinct working set.
func BenchmarkTxnRepeatedLoad(b *testing.B) {
	h := NewHeap(Config{Words: 1 << 16})
	th := h.NewThread()
	const words = 4
	a := th.Alloc(words)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Atomic(func(t *Txn) {
			var s uint64
			for rep := 0; rep < 64; rep++ {
				for w := 0; w < words; w++ {
					s += t.Load(a + Addr(w))
				}
			}
			// One store makes this a write transaction, so commit validates
			// the read set — the cost that duplicated read entries inflate.
			t.Store(a, s)
		})
	}
}

// BenchmarkFallbackOverflow measures the contended-overflow path at the
// substrate level: every operation overflows a tiny store buffer and
// completes on the TLE fallback, with all goroutines writing DISJOINT
// per-goroutine blocks. Under the fine-grained lock-set the operations share
// nothing and scale; under the retired global lock (the global variant) they
// serialize. This is the microbenchmark form of the harness
// contended-overflow workload recorded in BENCH_PR5.json.
func BenchmarkFallbackOverflow(b *testing.B) {
	run := func(global bool) func(b *testing.B) {
		return func(b *testing.B) {
			h := NewHeap(Config{
				Words:           1 << 20,
				StoreBufferSize: 2,
				EnableTLE:       true,
				MaxRetries:      1,
				GlobalFallback:  global,
				NoMaxLive:       true,
			})
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				th := h.NewThread()
				blk := th.Alloc(8)
				for pb.Next() {
					th.Atomic(func(t *Txn) {
						for w := Addr(0); w < 8; w++ {
							t.Store(blk+w, t.Load(blk+w)+1)
						}
					})
				}
			})
		}
	}
	b.Run("fine-grained", run(false))
	b.Run("global", run(true))
}

// BenchmarkAllocFree measures the allocator fast path: a matched alloc/free
// pair of a queue-node-sized block, single-threaded (the magazine hit path).
// The fastpath variant disables exact high-water tracking, as throughput runs
// do; tracked keeps the space-figure accounting on.
func BenchmarkAllocFree(b *testing.B) {
	run := func(cfg Config) func(b *testing.B) {
		return func(b *testing.B) {
			h := NewHeap(cfg)
			th := h.NewThread()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				th.Free(th.Alloc(4))
			}
		}
	}
	b.Run("fastpath", run(Config{Words: 1 << 20, NoMaxLive: true}))
	b.Run("tracked", run(Config{Words: 1 << 20}))
}

// BenchmarkAllocFreeParallel measures alloc/free with every goroutine on its
// own Thread — the uncontended steady state the magazine layer targets.
func BenchmarkAllocFreeParallel(b *testing.B) {
	h := NewHeap(Config{Words: 1 << 22, NoMaxLive: true})
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		th := h.NewThread()
		for pb.Next() {
			th.Free(th.Alloc(4))
		}
	})
}
