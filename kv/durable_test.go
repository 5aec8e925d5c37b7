package kv

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/kv/wal"
)

func durableConfig(mfs *wal.MemFS, every int) Config {
	return Config{
		Slots:       1 << 10,
		PoolThreads: 8,
		Durability:  &Durability{Dir: "wal", FS: mfs, SnapshotEvery: every},
	}
}

func openDurable(t *testing.T, mfs *wal.MemFS, every int) *Store {
	t.Helper()
	return openTestStore(t, durableConfig(mfs, every))
}

// openTestStore opens a store that the test's cleanup closes. Close is
// idempotent, so tests that close (or crash and abandon) a store themselves
// still stop its Tuner goroutine here.
func openTestStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustPut(t *testing.T, s *Store, key, val string) {
	t.Helper()
	if err := s.Put(context.Background(), []byte(key), []byte(val), 0); err != nil {
		t.Fatalf("Put %s: %v", key, err)
	}
}

func checkGet(t *testing.T, s *Store, key, want string, wantOK bool) {
	t.Helper()
	val, ok, err := s.Get(context.Background(), []byte(key))
	if err != nil {
		t.Fatalf("Get %s: %v", key, err)
	}
	if ok != wantOK || (ok && string(val) != want) {
		t.Fatalf("Get %s = %q, %v; want %q, %v", key, val, ok, want, wantOK)
	}
}

// TestDurableCleanReopen: close gracefully, reopen, everything survives and
// recovery reports a clean start.
func TestDurableCleanReopen(t *testing.T) {
	mfs := wal.NewMemFS()
	s := openDurable(t, mfs, 0)
	if ri := s.Recovery(); ri == nil || !ri.Clean {
		// A brand-new empty directory has no crash to recover from.
		t.Fatalf("fresh open recovery = %+v, want clean", ri)
	}
	for i := 0; i < 200; i++ {
		mustPut(t, s, fmt.Sprintf("k%03d", i), fmt.Sprintf("v%03d", i))
	}
	mustPut(t, s, "k000", "replaced")
	if _, err := s.Delete(context.Background(), []byte("k001")); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openDurable(t, mfs, 0)
	defer s2.Close()
	ri := s2.Recovery()
	if ri == nil || !ri.Clean {
		t.Fatalf("reopen recovery = %+v, want clean", ri)
	}
	if ri.Entries != 199 {
		t.Fatalf("recovered %d entries, want 199", ri.Entries)
	}
	checkGet(t, s2, "k000", "replaced", true)
	checkGet(t, s2, "k001", "", false)
	checkGet(t, s2, "k123", "v123", true)
	if got, want := s2.Seq(), s.Seq(); got != want {
		t.Fatalf("sequence resumed at %d, want %d", got, want)
	}
}

// TestDurableCrashReopen: no Close — simulate a power cut. Every
// acknowledged write must survive; recovery reports a crash start.
func TestDurableCrashReopen(t *testing.T) {
	mfs := wal.NewMemFS()
	s := openDurable(t, mfs, 0)
	for i := 0; i < 100; i++ {
		mustPut(t, s, fmt.Sprintf("k%03d", i), fmt.Sprintf("v%03d", i))
	}
	if _, err := s.Delete(context.Background(), []byte("k050")); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	mfs.Crash() // acknowledged writes are fsynced: the cut loses nothing acked

	s2 := openDurable(t, mfs, 0)
	defer s2.Close()
	ri := s2.Recovery()
	if ri == nil || ri.Clean {
		t.Fatalf("crash reopen recovery = %+v, want crash (not clean)", ri)
	}
	if ri.Entries != 99 {
		t.Fatalf("recovered %d entries, want 99", ri.Entries)
	}
	checkGet(t, s2, "k050", "", false)
	checkGet(t, s2, "k099", "v099", true)
}

// TestDurableTTLSurvives: expiry deadlines are durable state.
func TestDurableTTLSurvives(t *testing.T) {
	now := time.Now().UnixNano()
	clock := now
	mfs := wal.NewMemFS()
	cfg := durableConfig(mfs, 0)
	cfg.Now = func() int64 { return clock }
	s := openTestStore(t, cfg)
	if err := s.Put(context.Background(), []byte("ttl"), []byte("v"), time.Hour); err != nil {
		t.Fatalf("Put: %v", err)
	}
	mustPut(t, s, "forever", "v")
	mfs.Crash()

	cfg2 := durableConfig(mfs, 0)
	cfg2.Now = func() int64 { return clock }
	s2 := openTestStore(t, cfg2)
	checkGet(t, s2, "ttl", "v", true)
	clock = now + int64(2*time.Hour) // past the deadline: reads as missing
	checkGet(t, s2, "ttl", "", false)
	checkGet(t, s2, "forever", "v", true)
}

// TestSnapshotDuringWrites runs concurrent writers (disjoint key ranges, so
// the expected final state is exact) while automatic snapshots churn
// underneath, crashes, and verifies recovery matches the shadow model
// exactly. Run under -race this also exercises the snapshot scan against
// live transactions.
func TestSnapshotDuringWrites(t *testing.T) {
	mfs := wal.NewMemFS()
	s := openDurable(t, mfs, 50) // snapshot every 50 mutations: constant churn
	const writers, keys, rounds = 4, 20, 15
	shadow := make([]map[string]string, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		shadow[w] = make(map[string]string)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := 0; k < keys; k++ {
					key := fmt.Sprintf("w%d-k%02d", w, k)
					if r%3 == 2 && k%4 == 0 {
						if _, err := s.Delete(context.Background(), []byte(key)); err != nil {
							t.Errorf("delete %s: %v", key, err)
							return
						}
						delete(shadow[w], key)
						continue
					}
					val := fmt.Sprintf("r%02d-%s", r, key)
					if err := s.Put(context.Background(), []byte(key), []byte(val), 0); err != nil {
						t.Errorf("put %s: %v", key, err)
						return
					}
					shadow[w][key] = val
				}
			}
		}(w)
	}
	wg.Wait()
	// Wait out any in-flight automatic snapshot, then take one more by hand
	// (covers the snapshot-path-then-crash case), then crash mid-life. The
	// wait matters: the crashed store is never closed, so a snapshot still
	// running after Crash would keep renaming and pruning files underneath
	// the recovery below — something a really crashed process cannot do.
	s.snapWG.Wait()
	if _, err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if s.Snapshots() == 0 {
		t.Fatal("no snapshot ever completed")
	}
	mfs.Crash()

	s2 := openDurable(t, mfs, 0)
	defer s2.Close()
	total := 0
	for w := 0; w < writers; w++ {
		for key, want := range shadow[w] {
			checkGet(t, s2, key, want, true)
			total++
		}
		for k := 0; k < keys; k++ {
			key := fmt.Sprintf("w%d-k%02d", w, k)
			if _, present := shadow[w][key]; !present {
				checkGet(t, s2, key, "", false)
			}
		}
	}
	if s2.Len() != total {
		t.Fatalf("recovered %d entries, shadow has %d", s2.Len(), total)
	}
}

// TestReplayBarrierRule feeds kv.Open a hand-crafted directory exercising the
// sequence rule directly: a snapshot with barrier S0=5 that does NOT contain
// key "resurrect" (it was deleted before the snapshot scan), and a log
// segment holding a STALE put of that key (seq 3 <= S0, from before the
// delete, racing appenders wrote it late) plus a fresh put (seq 7 > S0).
// Replay must drop the stale record and apply the fresh one.
func TestReplayBarrierRule(t *testing.T) {
	mfs := wal.NewMemFS()
	w, err := wal.NewSnapshotWriter(mfs, "wal", 1, 5)
	if err != nil {
		t.Fatalf("snapshot writer: %v", err)
	}
	if err := w.Add(2, 0, []byte("kept"), []byte("kept-v")); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l, err := wal.OpenLog("wal", 1, wal.Options{FS: mfs})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	if err := l.AppendPut(3, 0, []byte("resurrect"), []byte("stale")); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.AppendPut(7, 0, []byte("fresh"), []byte("fresh-v")); err != nil {
		t.Fatalf("append: %v", err)
	}
	// An out-of-order older version of a key the log already has newer: the
	// newest-applied map must win regardless of file order.
	if err := l.AppendPut(6, 0, []byte("fresh"), []byte("older-loses")); err != nil {
		t.Fatalf("append: %v", err)
	}
	l.Close()

	s := openDurable(t, mfs, 0)
	defer s.Close()
	checkGet(t, s, "kept", "kept-v", true)
	checkGet(t, s, "resurrect", "", false) // stale record must NOT revive it
	checkGet(t, s, "fresh", "fresh-v", true)
	if got := s.Seq(); got != 7 {
		t.Fatalf("sequence resumed at %d, want 7", got)
	}
	if ri := s.Recovery(); ri.Applied != 2 {
		t.Fatalf("applied %d log records, want 2 (stale ones dropped): %+v", ri.Applied, ri)
	}
}

// TestRecoveryRefusesOverflow: a log holding more keys than the index can is
// an unrecoverable configuration — Open must fail with ErrRecovery wrapping
// ErrFull, not silently drop data.
func TestRecoveryRefusesOverflow(t *testing.T) {
	mfs := wal.NewMemFS()
	l, err := wal.OpenLog("wal", 0, wal.Options{FS: mfs})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	const n = 64 // > maxEntries(16) = 12
	for i := 0; i < n; i++ {
		if err := l.AppendPut(uint64(i+1), 0, []byte(fmt.Sprintf("key-%02d", i)), []byte("v")); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	l.Close()
	cfg := Config{Slots: 16, PoolThreads: 8, Durability: &Durability{Dir: "wal", FS: mfs}}
	_, err = Open(cfg)
	if !errors.Is(err, wal.ErrRecovery) || !errors.Is(err, ErrFull) {
		t.Fatalf("overflow recovery: %v, want ErrRecovery wrapping ErrFull", err)
	}
}

// TestMidLogCorruptionRefusesStart: a byte flip in a non-final segment must
// abort Open with the typed error (exit-3 path in kvserver).
func TestMidLogCorruptionRefusesStart(t *testing.T) {
	mfs := wal.NewMemFS()
	s := openDurable(t, mfs, 0)
	for i := 0; i < 50; i++ {
		mustPut(t, s, fmt.Sprintf("k%02d", i), "vvvvvvvv")
	}
	if _, err := s.Snapshot(); err != nil { // rotates: segment 0 pruned, 1 active
		t.Fatalf("Snapshot: %v", err)
	}
	for i := 0; i < 10; i++ {
		mustPut(t, s, fmt.Sprintf("post%02d", i), "v")
	}
	if _, err := s.wal.Rotate(); err != nil { // make segment 1 non-final
		t.Fatalf("Rotate: %v", err)
	}
	mustPut(t, s, "tail", "v")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := mfs.Corrupt("wal/wal-00000001.seg", 25, 0x10); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	_, err := Open(durableConfig(mfs, 0))
	if !errors.Is(err, wal.ErrRecovery) {
		t.Fatalf("corrupt mid-log open: %v, want ErrRecovery", err)
	}
	var re *wal.RecoveryError
	if !errors.As(err, &re) {
		t.Fatalf("error is %T, want *wal.RecoveryError", err)
	}
}

// TestNonDurableUnchanged: without Durability the new machinery must stay
// out of the way — no seq ticking, Close a no-op, stats absent.
func TestNonDurableUnchanged(t *testing.T) {
	s := newTestStore(t, Config{Slots: 1 << 8, PoolThreads: 8})
	mustPut(t, s, "k", "v")
	if s.Durable() {
		t.Fatal("in-memory store claims durability")
	}
	if got := s.Seq(); got != 0 {
		t.Fatalf("in-memory store ticked seq to %d", got)
	}
	if _, ok := s.WalStats(); ok {
		t.Fatal("in-memory store has wal stats")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := s.Snapshot(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Snapshot on in-memory store: %v, want ErrNotDurable", err)
	}
}

// TestNewStorePanicsOnDurability pins the constructor contract.
func TestNewStorePanicsOnDurability(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewStore with Durability did not panic")
		}
	}()
	NewStore(Config{Durability: &Durability{Dir: "x"}})
}

// TestSnapshotPrunesHistory: after a snapshot, pre-rotation segments are
// gone and recovery uses the snapshot.
func TestSnapshotPrunesHistory(t *testing.T) {
	mfs := wal.NewMemFS()
	s := openDurable(t, mfs, 0)
	for i := 0; i < 30; i++ {
		mustPut(t, s, fmt.Sprintf("k%02d", i), fmt.Sprintf("v%02d", i))
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	names, err := mfs.ReadDir("wal")
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, n := range names {
		if n == "wal-00000000.seg" {
			t.Fatalf("segment 0 survived the snapshot prune: %v", names)
		}
	}
	mustPut(t, s, "after", "v")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2 := openDurable(t, mfs, 0)
	defer s2.Close()
	ri := s2.Recovery()
	if !ri.HadSnapshot || ri.SnapshotEntries != 30 {
		t.Fatalf("recovery ignored the snapshot: %+v", ri)
	}
	checkGet(t, s2, "k29", "v29", true)
	checkGet(t, s2, "after", "v", true)
}
