package kv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// bg is the context every non-deadline test op runs under.
var bg = context.Background()

// newTestStore builds an in-memory store that the test's cleanup closes,
// stopping its Tuner goroutine.
func newTestStore(t testing.TB, cfg Config) *Store {
	t.Helper()
	s := NewStore(cfg)
	t.Cleanup(func() { s.Close() })
	return s
}

// testStore builds a small store with a controllable clock.
func testStore(t *testing.T, cfg Config, now *atomic.Int64) *Store {
	t.Helper()
	if now != nil {
		cfg.Now = now.Load
	}
	return newTestStore(t, cfg)
}

func TestPutGetDelete(t *testing.T) {
	s := newTestStore(t, Config{Slots: 256})
	key := []byte("hello")
	val := []byte("world, of arbitrary length \x00\xff bytes")

	if _, ok, _ := s.Get(bg, key); ok {
		t.Fatal("get before put should miss")
	}
	if err := s.Put(bg, key, val, 0); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, ok, err := s.Get(bg, key)
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, val) {
		t.Fatalf("get: got %q want %q", got, val)
	}
	if n := s.Len(); n != 1 {
		t.Fatalf("len: got %d want 1", n)
	}

	// Replace: old entry's storage is freed on commit.
	val2 := []byte("replacement")
	if err := s.Put(bg, key, val2, 0); err != nil {
		t.Fatalf("replace: %v", err)
	}
	got, _, _ = s.Get(bg, key)
	if !bytes.Equal(got, val2) {
		t.Fatalf("after replace: got %q want %q", got, val2)
	}
	if n := s.Len(); n != 1 {
		t.Fatalf("len after replace: got %d want 1", n)
	}

	existed, err := s.Delete(bg, key)
	if err != nil || !existed {
		t.Fatalf("delete: existed=%v err=%v", existed, err)
	}
	if _, ok, _ := s.Get(bg, key); ok {
		t.Fatal("get after delete should miss")
	}
	if existed, _ := s.Delete(bg, key); existed {
		t.Fatal("second delete should report missing")
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("len after delete: got %d want 0", n)
	}
	if n := s.Tombstones(); n != 1 {
		t.Fatalf("tombstones: got %d want 1", n)
	}
}

func TestEmptyAndOversized(t *testing.T) {
	s := newTestStore(t, Config{Slots: 64, MaxKeyBytes: 8, MaxValueBytes: 16})
	if err := s.Put(bg, nil, []byte("v"), 0); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("empty key: %v", err)
	}
	if err := s.Put(bg, []byte("123456789"), []byte("v"), 0); !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("big key: %v", err)
	}
	if err := s.Put(bg, []byte("k"), bytes.Repeat([]byte("v"), 17), 0); !errors.Is(err, ErrValueTooLarge) {
		t.Fatalf("big value: %v", err)
	}
}

func TestValueSizesRoundTrip(t *testing.T) {
	// Cross the word-packing boundaries: 0..17 bytes plus a jumbo value.
	s := newTestStore(t, Config{Slots: 256})
	for n := 0; n <= 17; n++ {
		key := []byte(fmt.Sprintf("key-%d", n))
		val := bytes.Repeat([]byte{byte(n + 1)}, n)
		if err := s.Put(bg, key, val, 0); err != nil {
			t.Fatalf("put %d: %v", n, err)
		}
		got, ok, _ := s.Get(bg, key)
		if !ok || !bytes.Equal(got, val) {
			t.Fatalf("roundtrip %d bytes: ok=%v got=%q", n, ok, got)
		}
	}
	jumbo := bytes.Repeat([]byte("x0123456"), 512/8) // 512B
	if err := s.Put(bg, []byte("jumbo"), jumbo, 0); err != nil {
		t.Fatalf("jumbo put: %v", err)
	}
	if got, ok, _ := s.Get(bg, []byte("jumbo")); !ok || !bytes.Equal(got, jumbo) {
		t.Fatal("jumbo roundtrip failed")
	}
}

func TestTombstoneReuseAndProbeThrough(t *testing.T) {
	// Force a probe cluster, delete in the middle, verify later keys are
	// still reachable (tombstones keep probes alive) and that a new Put
	// reuses the tombstone.
	s := newTestStore(t, Config{Slots: 64})
	keys := make([][]byte, 8)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("cluster-%d", i))
		if err := s.Put(bg, keys[i], []byte{byte(i)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Delete(bg, keys[3]); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if i == 3 {
			continue
		}
		if _, ok, _ := s.Get(bg, k); !ok {
			t.Fatalf("key %d unreachable after middle delete", i)
		}
	}
	tombs := s.Tombstones()
	if err := s.Put(bg, []byte("newcomer"), []byte("n"), 0); err != nil {
		t.Fatal(err)
	}
	// The newcomer may or may not land on the tombstone depending on its
	// hash; putting keys[3] back MUST reuse its own tombstone if it is still
	// there. Either way tombstones never grow from a Put.
	if err := s.Put(bg, keys[3], []byte("back"), 0); err != nil {
		t.Fatal(err)
	}
	if got := s.Tombstones(); got > tombs {
		t.Fatalf("tombstones grew across Puts: %d -> %d", tombs, got)
	}
	if v, ok, _ := s.Get(bg, keys[3]); !ok || !bytes.Equal(v, []byte("back")) {
		t.Fatal("reinserted key unreadable")
	}
}

func TestFull(t *testing.T) {
	s := newTestStore(t, Config{Slots: 16}) // ceiling = 12 entries
	var err error
	n := 0
	for ; n < 16; n++ {
		err = s.Put(bg, []byte(fmt.Sprintf("k%d", n)), []byte("v"), 0)
		if err != nil {
			break
		}
	}
	if !errors.Is(err, ErrFull) {
		t.Fatalf("expected ErrFull, got %v after %d puts", err, n)
	}
	if n != maxEntries(16) {
		t.Fatalf("accepted %d entries, want %d", n, maxEntries(16))
	}
	// Deleting does not immediately recover capacity (tombstones count
	// toward the ceiling until compacted) but replacing an existing key
	// always works.
	if err := s.Put(bg, []byte("k0"), []byte("v2"), 0); err != nil {
		t.Fatalf("replace at full: %v", err)
	}
}

func TestExpiry(t *testing.T) {
	var now atomic.Int64
	now.Store(1_000_000)
	s := testStore(t, Config{Slots: 256}, &now)
	if err := s.Put(bg, []byte("ttl"), []byte("v"), 100); err != nil { // deadline 1_000_100
		t.Fatal(err)
	}
	if err := s.Put(bg, []byte("forever"), []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(bg, []byte("ttl")); !ok {
		t.Fatal("unexpired key should read")
	}
	now.Store(1_000_100)
	if _, ok, _ := s.Get(bg, []byte("ttl")); ok {
		t.Fatal("expired key should miss")
	}
	if _, ok, _ := s.Get(bg, []byte("forever")); !ok {
		t.Fatal("no-ttl key must not expire")
	}
	// The lazy miss does not reclaim; the sweep does.
	if n := s.Len(); n != 2 {
		t.Fatalf("len before sweep: %d", n)
	}
	if n := s.ExpireRange(0, s.Slots()); n != 1 {
		t.Fatalf("expire sweep removed %d, want 1", n)
	}
	if n := s.Len(); n != 1 {
		t.Fatalf("len after sweep: %d", n)
	}
	// Expired and swept: a fresh Put of the key works.
	if err := s.Put(bg, []byte("ttl"), []byte("v2"), 0); err != nil {
		t.Fatal(err)
	}
}

func TestCompaction(t *testing.T) {
	s := newTestStore(t, Config{Slots: 64})
	for i := 0; i < 20; i++ {
		if err := s.Put(bg, []byte(fmt.Sprintf("k%d", i)), []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if _, err := s.Delete(bg, []byte(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if s.Tombstones() != 20 {
		t.Fatalf("tombstones: %d", s.Tombstones())
	}
	// With every entry deleted, every cluster is pure tombstones; repeated
	// backward sweeps must clear them all (each pass clears at least the
	// tail of each run).
	for i := 0; i < 64 && s.Tombstones() > 0; i++ {
		s.CompactRange(0, s.Slots())
	}
	if n := s.Tombstones(); n != 0 {
		t.Fatalf("compaction left %d tombstones", n)
	}
	// The index is usable and empty.
	for i := 0; i < 20; i++ {
		if err := s.Put(bg, []byte(fmt.Sprintf("r%d", i)), []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Len(); n != 20 {
		t.Fatalf("len after recycle: %d", n)
	}
}

func TestCompactionKeepsProbeChains(t *testing.T) {
	// A tombstone in the MIDDLE of a live cluster must survive compaction,
	// and the keys behind it must stay reachable afterward.
	s := newTestStore(t, Config{Slots: 64})
	for i := 0; i < 10; i++ {
		if err := s.Put(bg, []byte(fmt.Sprintf("c%d", i)), []byte{byte(i)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Delete(bg, []byte(fmt.Sprintf("c%d", i*2))); err != nil {
			t.Fatal(err)
		}
	}
	s.CompactRange(0, s.Slots())
	for i := 0; i < 5; i++ {
		k := []byte(fmt.Sprintf("c%d", i*2+1))
		if _, ok, _ := s.Get(bg, k); !ok {
			t.Fatalf("key %s lost after compaction", k)
		}
	}
}

func TestScan(t *testing.T) {
	s := newTestStore(t, Config{Slots: 256})
	want := map[string]string{}
	for i := 0; i < 40; i++ {
		k, v := fmt.Sprintf("scan-%02d", i), fmt.Sprintf("val-%d", i)
		want[k] = v
		if err := s.Put(bg, []byte(k), []byte(v), 0); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]string{}
	var cursor uint64
	pages := 0
	for cursor < s.Slots() {
		pairs, next, err := s.Scan(bg, cursor, 7)
		if err != nil {
			t.Fatal(err)
		}
		if next <= cursor {
			t.Fatalf("cursor did not advance: %d -> %d", cursor, next)
		}
		for _, p := range pairs {
			if _, dup := got[string(p.Key)]; dup {
				t.Fatalf("duplicate key %q in scan", p.Key)
			}
			got[string(p.Key)] = string(p.Value)
		}
		cursor = next
		pages++
	}
	if len(got) != len(want) {
		t.Fatalf("scan found %d keys, want %d (%d pages)", len(got), len(want), pages)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("scan %q: got %q want %q", k, got[k], v)
		}
	}
}

func TestConcurrentMixedOps(t *testing.T) {
	// Hammer one store from many goroutines; -race is the real assertion,
	// plus per-key value integrity: each key's value always carries the
	// key's own tag, so a torn read or lost update surfaces as a mismatch.
	s := newTestStore(t, Config{Slots: 1 << 10, PoolThreads: 8})
	const (
		goroutines = 8
		keys       = 64
		opsEach    = 400
	)
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := uint64(g*2654435761 + 1)
			next := func(n int) int {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return int(rng % uint64(n))
			}
			for i := 0; i < opsEach; i++ {
				k := []byte(fmt.Sprintf("key-%02d", next(keys)))
				switch next(10) {
				case 0, 1, 2:
					val := append([]byte("tag:"), k...)
					if err := s.Put(bg, k, val, 0); err != nil && !errors.Is(err, ErrFull) {
						errc <- err
						return
					}
				case 3:
					if _, err := s.Delete(bg, k); err != nil {
						errc <- err
						return
					}
				case 4:
					if _, _, err := s.Scan(bg, uint64(next(int(s.Slots()))), 16); err != nil {
						errc <- err
						return
					}
				default:
					v, ok, err := s.Get(bg, k)
					if err != nil {
						errc <- err
						return
					}
					if ok && !bytes.Equal(v, append([]byte("tag:"), k...)) {
						errc <- fmt.Errorf("key %q read torn value %q", k, v)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	// The engine stayed coherent: counters match a full scan.
	n := 0
	for cursor := uint64(0); cursor < s.Slots(); {
		pairs, next, _ := s.Scan(bg, cursor, 1<<20)
		n += len(pairs)
		cursor = next
	}
	if n != s.Len() {
		t.Fatalf("scan found %d live entries, Len says %d", n, s.Len())
	}
}

func TestConcurrentSameKey(t *testing.T) {
	// All goroutines fight over ONE key: replacements free the displaced
	// entry while concurrent Gets race the free — the sandboxing story. A
	// torn or use-after-free read would return a value none of the writers
	// wrote.
	s := newTestStore(t, Config{Slots: 64, PoolThreads: 8})
	key := []byte("contended")
	legal := func(v []byte) bool {
		return len(v) == 8 && string(v[:7]) == "writer-"
	}
	var wg sync.WaitGroup
	bad := make(chan []byte, 1)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			val := []byte(fmt.Sprintf("writer-%d", g))
			for i := 0; i < 300; i++ {
				if g%2 == 0 {
					s.Put(bg, key, val, 0)
				} else if v, ok, _ := s.Get(bg, key); ok && !legal(v) {
					select {
					case bad <- v:
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case v := <-bad:
		t.Fatalf("read impossible value %q", v)
	default:
	}
}

func TestHeapReclamation(t *testing.T) {
	// Put/Delete churn must not grow live heap usage: every displaced or
	// deleted entry is freed on commit.
	s := newTestStore(t, Config{Slots: 256})
	val := bytes.Repeat([]byte("x"), 64)
	for i := 0; i < 50; i++ {
		if err := s.Put(bg, []byte("churn"), val, 0); err != nil {
			t.Fatal(err)
		}
	}
	after := s.Heap().Stats().LiveWords
	for i := 0; i < 500; i++ {
		if err := s.Put(bg, []byte("churn"), val, 0); err != nil {
			t.Fatal(err)
		}
	}
	end := s.Heap().Stats().LiveWords
	if end != after {
		t.Fatalf("live words grew under replace churn: %d -> %d", after, end)
	}
	if _, err := s.Delete(bg, []byte("churn")); err != nil {
		t.Fatal(err)
	}
	if got := s.Heap().Stats().LiveWords; got >= end {
		t.Fatalf("delete did not free entry storage: %d -> %d", end, got)
	}
}

func TestExpiryUsesRealClockByDefault(t *testing.T) {
	s := newTestStore(t, Config{Slots: 64})
	if err := s.Put(bg, []byte("blink"), []byte("v"), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if _, ok, _ := s.Get(bg, []byte("blink")); !ok {
			return // expired, as it should
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("1ms-TTL key still readable after 1s")
}
